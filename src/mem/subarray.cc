#include "mem/subarray.hh"

#include "common/log.hh"

namespace streampim
{

FunctionalSubarray::FunctionalSubarray(const RmParams &params,
                                       unsigned mats,
                                       unsigned tracks_per_mat,
                                       unsigned domains_per_track)
    : params_(params),
      matBytes_(std::uint64_t(tracks_per_mat) / 8 *
                domains_per_track),
      energy_(params, meter_),
      bus_(8, params.busLengthDomains / params.busSegmentSize),
      busTiming_(params)
{
    SPIM_ASSERT(mats >= 1, "subarray needs at least one mat");
    mats_.reserve(mats);
    for (unsigned i = 0; i < mats; ++i) {
        // The first transferMatsPerSubarray mats carry transfer
        // tracks for non-destructive reads (Sec. III-E).
        bool has_transfer = i < params.transferMatsPerSubarray;
        mats_.push_back(std::make_unique<Mat>(
            tracks_per_mat, domains_per_track, params.domainsPerPort,
            has_transfer, params.spareTracksPerMat));
    }
    processor_ = std::make_unique<RmProcessor>(params_, meter_);
}

std::uint64_t
FunctionalSubarray::capacityBytes() const
{
    return matBytes_ * mats_.size();
}

Mat &
FunctionalSubarray::mat(unsigned i)
{
    SPIM_ASSERT(i < mats_.size(), "mat index out of range");
    return *mats_[i];
}

SubarrayWear
FunctionalSubarray::wearSummary() const
{
    SubarrayWear w;
    for (const auto &m : mats_)
        w.merge(m->wear());
    return w;
}

void
FunctionalSubarray::setFaultInjector(FaultInjector *faults)
{
    faults_ = faults;
    for (auto &m : mats_)
        m->setFaultInjector(faults);
    processor_->setFaultInjector(faults);
}

FunctionalSubarray::Location
FunctionalSubarray::locate(std::uint64_t offset) const
{
    SPIM_ASSERT(offset < capacityBytes(),
                "offset ", offset, " beyond subarray capacity");
    return {unsigned(offset / matBytes_), offset % matBytes_};
}

void
FunctionalSubarray::hostWrite(std::uint64_t offset,
                              std::span<const std::uint8_t> data)
{
    std::uint64_t pos = offset;
    std::size_t consumed = 0;
    while (consumed < data.size()) {
        Location loc = locate(pos);
        std::uint64_t room = matBytes_ - loc.offset;
        std::uint64_t chunk =
            std::min<std::uint64_t>(room, data.size() - consumed);
        mats_[loc.mat]->writeBytes(
            loc.offset, data.subspan(consumed, chunk));
        energy_.write(chunk);
        pos += chunk;
        consumed += chunk;
    }
}

void
FunctionalSubarray::hostReadInto(std::uint64_t offset,
                                 std::uint64_t count,
                                 std::vector<std::uint8_t> &out)
{
    std::uint64_t pos = offset;
    std::uint64_t left = count;
    while (left > 0) {
        Location loc = locate(pos);
        std::uint64_t room = matBytes_ - loc.offset;
        std::uint64_t chunk = std::min<std::uint64_t>(room, left);
        mats_[loc.mat]->readBytesInto(loc.offset, chunk, out);
        energy_.read(chunk);
        pos += chunk;
        left -= chunk;
    }
}

std::span<std::uint8_t>
FunctionalSubarray::streamOut(std::uint64_t offset,
                              std::uint32_t size, Cycle &bus_cycles)
{
    // Steps 1-2 of Fig. 13: copy from save tracks to transfer
    // tracks (fan-out, non-destructive), then shift onto the RM bus
    // and through it to the processor. A mat without transfer
    // tracks first moves its data to a transfer-capable mat via the
    // bus (modeled as the same shift-domain cost).
    Location loc = locate(offset);
    Mat &src = *mats_[loc.mat];
    std::span<std::uint8_t> data = arena_.alloc(size);
    if (src.hasTransferTracks()) {
        src.copyOutViaTransferTracksInto(loc.offset, data);
    } else {
        Mat &xfer = *mats_[0];
        SPIM_ASSERT(xfer.hasTransferTracks(),
                    "no transfer-capable mat in subarray");
        // Functionally: read the values through the model (shift
        // domain), stage them on mat 0's transfer tracks.
        src.shiftOutDestructiveInto(loc.offset, data);
        src.shiftInFromBus(loc.offset, data); // restore (model)
    }

    // Push the replica through the functional segmented bus.
    busWords_.assign(data.begin(), data.end());
    Cycle cycles = 0;
    bus_.transferAllInto(busWords_, busArrived_, cycles, faults_,
                         params_.busSegmentSize);
    SPIM_ASSERT(busArrived_.size() == busWords_.size(),
                "bus lost data");
    bus_cycles += cycles;
    busTiming_.recordTransferEnergy(energy_, size);
    // The processor computes on what the bus delivered; a recovery
    // failure reaches it as a visibly displaced word, never as
    // silently wrong data.
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(busArrived_[i]);
    return data;
}

void
FunctionalSubarray::streamIn(std::uint64_t offset,
                             std::span<const std::uint8_t> data,
                             Cycle &bus_cycles)
{
    // Steps 4-5: results ride the bus back and shift into the
    // destination mat (no conversion).
    busWords_.assign(data.begin(), data.end());
    Cycle cycles = 0;
    bus_.transferAllInto(busWords_, busArrived_, cycles, faults_,
                         params_.busSegmentSize);
    SPIM_ASSERT(busArrived_.size() == busWords_.size(),
                "bus lost data");
    bus_cycles += cycles;
    busTiming_.recordTransferEnergy(energy_, data.size());

    std::span<std::uint8_t> delivered =
        arena_.alloc(busArrived_.size());
    for (std::size_t i = 0; i < busArrived_.size(); ++i)
        delivered[i] = std::uint8_t(busArrived_[i]);

    Location loc = locate(offset);
    mats_[loc.mat]->shiftInFromBus(loc.offset, delivered);
}

void
FunctionalSubarray::executeVpcInto(VpcKind kind, std::uint64_t src1,
                                   std::uint64_t src2,
                                   std::uint64_t dst,
                                   std::uint32_t size,
                                   SubarrayVpcResult &res)
{
    SPIM_ASSERT(size > 0, "zero-size VPC");
    res.values.clear();
    res.busCycles = 0;
    res.pipelineCycles = 0;
    res.overflow = false;
    res.fault = VpcFaultInfo{};
    // Per-VPC staging starts from an empty arena; spans handed out
    // below live until the next VPC on this subarray.
    arena_.reset();

    // Attribute every sampled fault of this execution to one VPC.
    // The system-level driver may already hold a scope spanning
    // remote-operand staging; only open one when nobody did.
    const bool fallible = faults_ && faults_->anyEnabled();
    const bool own_scope = fallible && !faults_->scopeActive();
    if (own_scope)
        faults_->beginVpc();
    const std::uint64_t shifts_before =
        fallible ? faults_->stats().correctionShifts : 0;
    const std::uint64_t checks_before =
        fallible ? faults_->stats().guardChecks : 0;
    const std::uint64_t redeposits_before =
        fallible ? faults_->stats().redeposits : 0;
    const std::uint64_t remap_bytes_before =
        fallible ? faults_->stats().remapCopyBytes : 0;

    std::span<std::uint8_t> a =
        streamOut(src1, size, res.busCycles);
    std::span<std::uint8_t> b;
    if (kind != VpcKind::Tran)
        b = streamOut(src2, kind == VpcKind::Smul ? 1 : size,
                      res.busCycles);

    switch (kind) {
      case VpcKind::Mul: {
        ProcessorResult &r = procScratch_;
        processor_->dotProductInto(a, b, r);
        res.values.assign(r.values.begin(), r.values.end());
        res.pipelineCycles = r.cycles;
        res.overflow = r.overflow;
        // The 32-bit accumulator streams back as 4 bytes.
        std::span<std::uint8_t> out = arena_.alloc(4);
        for (int i = 0; i < 4; ++i)
            out[i] = std::uint8_t(r.values[0] >> (8 * i));
        streamIn(dst, out, res.busCycles);
        break;
      }
      case VpcKind::Smul: {
        ProcessorResult &r = procScratch_;
        processor_->scalarVectorMulInto(b[0], a, r);
        res.values.assign(r.values.begin(), r.values.end());
        res.pipelineCycles = r.cycles;
        std::span<std::uint8_t> out = arena_.alloc(size);
        for (std::uint32_t i = 0; i < size; ++i)
            out[i] = std::uint8_t(r.values[i]); // low byte stored
        streamIn(dst, out, res.busCycles);
        break;
      }
      case VpcKind::Add: {
        ProcessorResult &r = procScratch_;
        processor_->vectorAddInto(a, b, r);
        res.values.assign(r.values.begin(), r.values.end());
        res.pipelineCycles = r.cycles;
        res.overflow = r.overflow;
        std::span<std::uint8_t> out = arena_.alloc(size);
        for (std::uint32_t i = 0; i < size; ++i)
            out[i] = std::uint8_t(r.values[i]);
        streamIn(dst, out, res.busCycles);
        break;
      }
      case VpcKind::Tran: {
        res.values.assign(a.begin(), a.end());
        streamIn(dst, a, res.busCycles);
        break;
      }
    }

    if (fallible) {
        // Charge the recovery overhead: every compensating shift
        // burns shift energy (its bus-cycle cost is already inside
        // busCycles via transferAllInto), every guard check one sense,
        // every re-driven deposit a write quantum, and every remap
        // migration one read + write pass over the retired track.
        const FaultStats &after = faults_->stats();
        energy_.shift(after.correctionShifts - shifts_before);
        energy_.guardSense(after.guardChecks - checks_before);
        energy_.redeposit(after.redeposits - redeposits_before);
        const std::uint64_t remap_bytes =
            after.remapCopyBytes - remap_bytes_before;
        energy_.read(remap_bytes);
        energy_.write(remap_bytes);
        res.fault = own_scope ? faults_->endVpc()
                              : faults_->currentInfo();
    }
}

} // namespace streampim

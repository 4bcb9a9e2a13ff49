#include "mem/mat.hh"

#include <algorithm>

#include "common/log.hh"
#include "rm/fault_injector.hh"

namespace streampim
{

Mat::Mat(unsigned tracks, unsigned domains_per_track,
         unsigned domains_per_port, bool has_transfer_tracks,
         unsigned spare_tracks)
    : dataTracks_(tracks),
      domainsPerTrack_(domains_per_track),
      domainsPerPort_(domains_per_port),
      spareNext_(tracks)
{
    SPIM_ASSERT(tracks >= 8 && tracks % 8 == 0,
                "a mat needs a multiple of 8 save tracks, got ",
                tracks);
    saveTracks_.reserve(tracks + spare_tracks);
    for (unsigned i = 0; i < tracks + spare_tracks; ++i)
        saveTracks_.emplace_back(domains_per_track, domains_per_port);
    trackMap_.resize(tracks);
    for (unsigned i = 0; i < tracks; ++i)
        trackMap_[i] = i;
    wear_.assign(tracks + spare_tracks, 0);
    exhaustions_.assign(tracks + spare_tracks, 0);
    if (has_transfer_tracks) {
        transferTracks_.reserve(tracks);
        for (unsigned i = 0; i < tracks; ++i)
            transferTracks_.emplace_back(domains_per_track,
                                         domains_per_port);
    }
}

Mat::BytePos
Mat::locate(std::uint64_t offset) const
{
    const unsigned bytes_per_row = tracks() / 8;
    BytePos pos;
    pos.domain = unsigned(offset / bytes_per_row);
    pos.trackGroup = unsigned(offset % bytes_per_row) * 8;
    return pos;
}

void
Mat::checkRange(std::uint64_t offset, std::uint64_t count) const
{
    SPIM_ASSERT(offset + count <= capacityBytes(),
                "mat access [", offset, ", ", offset + count,
                ") beyond capacity ", capacityBytes());
}

MatWear
Mat::wear() const
{
    MatWear w;
    w.sparesTotal = unsigned(saveTracks_.size()) - dataTracks_;
    w.sparesUsed = spareNext_ - dataTracks_;
    w.remaps = remaps_;
    for (std::uint64_t v : wear_)
        w.deposits += v;
    for (unsigned l = 0; l < dataTracks_; ++l)
        w.maxTrackWear = std::max(w.maxTrackWear, wear_[trackMap_[l]]);
    return w;
}

bool
Mat::alignFallible(Nanowire &t, unsigned domain)
{
    if (!faults_ || !faults_->enabled()) {
        activity_.shiftSteps += t.alignToPort(domain);
        return true;
    }
    int steps = t.stepsToAlign(domain);
    if (steps != 0) {
        auto att = t.tryShift(steps < 0 ? ShiftDir::TowardLower
                                        : ShiftDir::TowardHigher,
                              unsigned(steps < 0 ? -steps : steps),
                              faults_);
        activity_.shiftSteps +=
            unsigned(att.applied < 0 ? -att.applied : att.applied);
    }
    // Port checkpoint: the access port senses the guard pattern
    // directly, so misalignment detection here is exact.
    faults_->noteCheckpointCheck();
    if (t.alignedAtPort(domain))
        return true;
    // Mirror realignEpisode() on the real wire: one fallible
    // compensating single-step shift per misaligned position,
    // retried up to the budget.
    const unsigned budget = faults_->config().realignRetryBudget;
    unsigned attempts = 0;
    while (!t.alignedAtPort(domain)) {
        const int m = t.stepsToAlign(domain);
        const unsigned mag = unsigned(m < 0 ? -m : m);
        if (mag > faults_->maxCorrectable()) {
            faults_->noteUncorrectable();
            return false;
        }
        if (attempts >= budget) {
            faults_->noteBudgetExhausted();
            return false;
        }
        if (attempts > 0)
            faults_->noteRetry();
        attempts++;
        for (unsigned k = 0; k < mag && !t.alignedAtPort(domain);
             ++k) {
            const int d = t.stepsToAlign(domain) < 0 ? -1 : 1;
            faults_->noteCorrectionShifts(1);
            auto att = t.tryShift(d < 0 ? ShiftDir::TowardLower
                                        : ShiftDir::TowardHigher,
                                  1, faults_);
            activity_.shiftSteps += unsigned(
                att.applied < 0 ? -att.applied : att.applied);
        }
    }
    faults_->noteCorrected();
    return true;
}

int
Mat::depositDisplacement()
{
    if (!faults_ || !faults_->enabled())
        return 0;
    int disp = 0;
    switch (faults_->samplePulse(1)) {
      case ShiftOutcome::Exact:
        break;
      case ShiftOutcome::OverShift:
        disp = 1;
        break;
      case ShiftOutcome::UnderShift:
        disp = -1;
        break;
    }
    // Pre-commit checkpoint: the port senses the guard pattern
    // before the domain commits, so detection is exact; recovery is
    // still fallible and budget-bounded.
    faults_->noteCheckpointCheck();
    if (disp != 0)
        disp = realignEpisode(*faults_, disp);
    return disp;
}

bool
Mat::nucleateBounded(unsigned phys, unsigned &redeposits)
{
    redeposits = 0;
    const unsigned budget = faults_->config().redepositRetryBudget;
    for (unsigned attempt = 0; attempt <= budget; ++attempt) {
        if (attempt > 0)
            faults_->noteRedeposit();
        wear_[phys]++;
        if (faults_->sampleDeposit(wear_[phys] - 1)) {
            redeposits = attempt;
            return true;
        }
    }
    redeposits = budget;
    return false;
}

bool
Mat::remapTrack(unsigned logical)
{
    if (spareNext_ >= saveTracks_.size())
        return false; // spare pool exhausted
    const unsigned worn = trackMap_[logical];
    const unsigned spare = spareNext_++;
    // Controller-managed migration over the maintenance path: the
    // sensed contents are rewritten verbatim onto the spare (not
    // sampled — like host DMA it is ECC-protected), but the rewrite
    // still nucleates every domain of the spare once.
    saveTracks_[spare].writeAll(saveTracks_[worn].readAll());
    wear_[spare] += domainsPerTrack_;
    trackMap_[logical] = spare;
    remaps_++;
    faults_->noteRemap(domainsPerTrack_ / 8);
    return true;
}

bool
Mat::depositCommit(unsigned logical, bool &remapped)
{
    remapped = false;
    unsigned phys = trackMap_[logical];
    if (!faults_ || !faults_->writeFaultsEnabled()) {
        // Wear is physical reality, counted with or without an
        // injector; only the sampling needs one.
        wear_[phys]++;
        return true;
    }
    unsigned redeposits = 0;
    if (nucleateBounded(phys, redeposits)) {
        if (redeposits > 0)
            faults_->noteWriteCorrected(redeposits > 1);
        return true;
    }
    faults_->noteRedepositExhausted();
    exhaustions_[phys]++;
    if (exhaustions_[phys] >=
            faults_->config().remapAfterExhaustions &&
        remapTrack(logical)) {
        remapped = true;
        phys = trackMap_[logical];
        // One fresh episode on the spare; the remap itself already
        // escalated the VPC to at least Retried.
        if (nucleateBounded(phys, redeposits))
            return true;
        faults_->noteRedepositExhausted();
        exhaustions_[phys]++;
    }
    faults_->noteWriteFailed();
    return false;
}

void
Mat::writeBytes(std::uint64_t offset,
                std::span<const std::uint8_t> data)
{
    checkRange(offset, data.size());
    for (std::uint64_t i = 0; i < data.size(); ++i) {
        BytePos pos = locate(offset + i);
        for (unsigned b = 0; b < 8; ++b) {
            const unsigned logical = pos.trackGroup + b;
            const bool bit = (data[i] >> b) & 1;
            const bool aligned =
                alignFallible(save(logical), pos.domain);
            bool remapped = false;
            if (!depositCommit(logical, remapped))
                continue; // nucleation failed; domain keeps stale data
            // Re-fetch: the commit may have remapped the track onto
            // a spare, which sits at rest position and needs its own
            // (fallible) alignment.
            Nanowire &t = save(logical);
            const bool ok =
                remapped ? alignFallible(t, pos.domain) : aligned;
            if (ok)
                t.write(pos.domain, bit);
            else
                // Recovery failed (VPC already escalated): the port
                // writes whatever domain sits under it.
                t.writeAtPortOf(pos.domain, bit);
        }
        // The 8 tracks of a group write their bit in parallel under
        // one port operation.
        activity_.portWrites += 1;
    }
}

void
Mat::readBytesInto(std::uint64_t offset, std::uint64_t count,
                   std::vector<std::uint8_t> &out)
{
    checkRange(offset, count);
    for (std::uint64_t i = 0; i < count; ++i) {
        BytePos pos = locate(offset + i);
        std::uint8_t byte = 0;
        for (unsigned b = 0; b < 8; ++b) {
            Nanowire &t = save(pos.trackGroup + b);
            if (alignFallible(t, pos.domain))
                byte |= std::uint8_t(t.read(pos.domain)) << b;
            else
                byte |= std::uint8_t(t.senseAtPortOf(pos.domain))
                        << b;
        }
        activity_.portReads += 1;
        out.push_back(byte);
    }
}

void
Mat::copyOutViaTransferTracksInto(std::uint64_t offset,
                                  std::span<std::uint8_t> out)
{
    SPIM_ASSERT(hasTransferTracks(),
                "non-destructive read on a mat without transfer "
                "tracks");
    const std::uint64_t count = out.size();
    checkRange(offset, count);

    // The fan-out nanowires replicate each save-track domain onto
    // the adjacent transfer track: no port access, one fan-out event
    // plus one shift step per bit copied (the replica propagates one
    // branch length). Transfer tracks carry no wear state: the
    // replica is driven by the fan-out current, not a port
    // nucleation (and they are rewritten wholesale on every copy).
    for (std::uint64_t i = 0; i < count; ++i) {
        BytePos pos = locate(offset + i);
        std::uint8_t byte = 0;
        for (unsigned b = 0; b < 8; ++b) {
            Nanowire &src = save(pos.trackGroup + b);
            Nanowire &xfer = transferTracks_[pos.trackGroup + b];
            // Inspect the save track bit without a port operation:
            // the fan-out copy happens in the magnetic domain.
            bool bit = src.peekDomain(pos.domain);
            if (alignFallible(xfer, pos.domain)) {
                xfer.write(pos.domain, bit);
                byte |= std::uint8_t(bit) << b;
            } else {
                // The replica lands displaced on the transfer track;
                // return what actually sits at the port.
                xfer.writeAtPortOf(pos.domain, bit);
                byte |= std::uint8_t(xfer.senseAtPortOf(pos.domain))
                        << b;
            }
            activity_.fanOutCopies += 1;
            activity_.shiftSteps += 1;
        }
        out[i] = byte;
    }
}

void
Mat::shiftOutDestructiveInto(std::uint64_t offset,
                             std::span<std::uint8_t> out)
{
    const std::uint64_t count = out.size();
    checkRange(offset, count);
    for (std::uint64_t i = 0; i < count; ++i) {
        BytePos pos = locate(offset + i);
        // The 8-track group ejects this byte's domains with one
        // shared shift pulse; a residual displacement (recovery
        // failed) ejects the neighboring domain instead. Ejection
        // vacates domains rather than nucleating them, so it does
        // not wear the track.
        const int disp = depositDisplacement();
        const long d = long(pos.domain) + disp;
        std::uint8_t byte = 0;
        for (unsigned b = 0; b < 8; ++b) {
            Nanowire &t = save(pos.trackGroup + b);
            if (d >= 0 && d < long(domainsPerTrack_)) {
                byte |= std::uint8_t(t.peekDomain(unsigned(d))) << b;
                // The domain leaves the track toward the bus.
                t.pokeDomain(unsigned(d), false);
            }
            activity_.shiftSteps += 1;
        }
        out[i] = byte;
    }
}

void
Mat::shiftInFromBus(std::uint64_t offset,
                    std::span<const std::uint8_t> data)
{
    checkRange(offset, data.size());
    for (std::uint64_t i = 0; i < data.size(); ++i) {
        BytePos pos = locate(offset + i);
        // One shared deposit pulse per byte; a residual displacement
        // (recovery failed) commits the byte into the neighboring
        // domain, or loses it past the track end.
        const int disp = depositDisplacement();
        const long d = long(pos.domain) + disp;
        for (unsigned b = 0; b < 8; ++b) {
            const unsigned logical = pos.trackGroup + b;
            if (d >= 0 && d < long(domainsPerTrack_)) {
                bool remapped = false;
                if (depositCommit(logical, remapped))
                    save(logical).pokeDomain(unsigned(d),
                                             (data[i] >> b) & 1);
            }
            activity_.shiftSteps += 1;
        }
    }
}

} // namespace streampim

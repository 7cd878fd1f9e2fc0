// Versioned on-disk serialization of a CampaignState (kill-and-resume).
//
// A checkpoint is a token-oriented text file, following the conventions of
// model/serialize and sim/snapshot_io: a magic+version header, model and
// options signatures, the campaign state sections (RNG cursors, state
// tree, solved-input library, tests, events, stats, exclusions, coverage
// tracker), an `end` marker, and a final FNV-1a checksum line covering
// every byte before it. Doubles are hexfloats, snapshots use the
// snapshot_io codec, so a load reproduces the saved state bit-for-bit.
//
// Every failure mode — missing file, truncation, bit corruption, a future
// format version, a checkpoint from a different model or from
// trajectory-relevant options that differ — throws a typed
// expr::EvalError naming what mismatched; none of them can reach
// undefined behavior or silently resume a diverged campaign. The
// signatures deliberately cover only knobs that steer the trajectory
// (seed, solver budgets, sequence length, tree cap, ablations), not
// execution-strategy knobs (jobs, batch, simEngine) or stop conditions
// (budgetMillis, maxRounds): a campaign checkpointed under jobs=1 may be
// resumed under jobs=4 and still replays bit-identically.
//
// Saves are atomic: the file is written to `<path>.tmp` and renamed over
// `path`, so a crash mid-save leaves the previous checkpoint intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "stcg/campaign.h"

namespace stcg::gen {

inline constexpr const char* kCheckpointMagic = "stcg-checkpoint";
inline constexpr int kCheckpointVersion = 1;

/// Structural fingerprint of a compiled model: name, block count, input
/// variable declarations (ids, names, types, domains), state variable
/// declarations (including initial values), and the decision/branch/
/// objective skeleton. Two models with equal signatures index their
/// coverage points and goals identically.
[[nodiscard]] std::uint64_t modelSignature(const compile::CompiledModel& cm);

/// Fingerprint of the trajectory-relevant generation options (see file
/// comment for what is deliberately excluded).
[[nodiscard]] std::uint64_t optionsSignature(const GenOptions& opt);

/// Atomically write `cs` to `path`. `elapsedMillisTotal` is the total
/// wall-clock spent on the campaign so far (previous processes plus the
/// current one) and is what a resume rebases budget/timestamps with.
/// Throws expr::EvalError on I/O failure.
void saveCampaignCheckpoint(const std::string& path,
                            const compile::CompiledModel& cm,
                            const GenOptions& opt, const CampaignState& cs,
                            std::int64_t elapsedMillisTotal);

/// Load `path` into `cs`, which must be a freshly constructed
/// CampaignState for the same model with its RNG streams already seeded
/// (their seeds are verified against the file, their positions restored
/// from it). `goalCount` is the campaign's goal-list size: every
/// attempted goal id must lie below it. Throws expr::EvalError on any
/// validation failure; `cs` must be discarded by the caller if this
/// throws.
void loadCampaignCheckpoint(const std::string& path,
                            const compile::CompiledModel& cm,
                            const GenOptions& opt, std::size_t goalCount,
                            CampaignState& cs);

}  // namespace stcg::gen

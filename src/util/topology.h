#ifndef DEEPAQP_UTIL_TOPOLOGY_H_
#define DEEPAQP_UTIL_TOPOLOGY_H_

#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"

namespace deepaqp::util {

class Flags;

/// Canonical name of the placement flag: `--pin=off|compact` selects the
/// worker-placement policy of the shared thread pool (see PinPolicy).
/// Binaries parse it with Flags and apply it via util::ApplyPinFlag *before*
/// util::ApplyThreadsFlag, so the rebuilt pool picks the policy up.
inline constexpr char kPinFlag[] = "pin";

/// The CPUs the calling thread may run on (sched_getaffinity), ascending.
/// Empty when the query is unavailable (non-Linux), which callers treat as
/// "nothing to pin to".
std::vector<int> AllowedCpus();

/// Worker-placement policy of the thread pool.
///
/// * kOff (default): no pinning; the OS scheduler places every lane.
/// * kCompact: lane i is pinned to the i-th CPU of AllowedCpus(), wrapping
///   past the end when the pool is wider than the process's CPU set.
///
/// Placement only decides *where* a loop index runs, never what it
/// computes: under ThreadPool's determinism contract (disjoint output
/// slots, per-index child RNG streams, fixed-order reductions) both
/// policies are bit-identical at every thread count.
enum class PinPolicy { kOff, kCompact };

/// "off" / "compact".
const char* PinPolicyName(PinPolicy policy);

/// Parses "off" / "compact". Returns InvalidArgument on anything else;
/// `*policy` is untouched on error.
[[nodiscard]] Status ParsePinPolicy(std::string_view name, PinPolicy* policy);

/// Active placement policy. Initialized once from the DEEPAQP_PIN
/// environment variable; unset or unrecognized values keep kOff (with a
/// stderr warning for the latter). Consulted by ThreadPool at construction
/// time.
PinPolicy ActivePinPolicy();

/// Overrides the active policy. Takes effect when the pool is next rebuilt
/// (SetGlobalThreads); not safe while parallel work is in flight.
void SetPinPolicy(PinPolicy policy);

/// Reads `--pin=off|compact` and applies it (deepaqp_cli and the bench
/// binaries; the explicit flag hard-errors on unknown values where the env
/// var only warns). Call before ApplyThreadsFlag so the rebuilt pool pins
/// under the policy.
[[nodiscard]] Status ApplyPinFlag(const Flags& flags);

/// Deterministic placement plan for `lanes` pool lanes (lane 0 is the
/// caller, lanes 1.. are workers): the CPU each lane should be pinned to,
/// -1 for "leave unpinned". kOff, or an empty `cpus`, leaves every lane
/// unpinned; kCompact gives lane i `cpus[i % cpus.size()]`. A pure function
/// of its arguments.
std::vector<int> PlanPlacement(const std::vector<int>& cpus, PinPolicy policy,
                               int lanes);

/// Pins a thread by native handle to one CPU (the pool pins freshly spawned
/// workers from its constructor, so the pinned count is known
/// synchronously). Returns false when pinning is unavailable (non-Linux,
/// CPU out of range, or sched_setaffinity denied — e.g. a container's
/// seccomp policy); never fatal, callers degrade to unpinned execution.
bool PinNativeThread(std::thread::native_handle_type handle, int cpu);

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_TOPOLOGY_H_

#ifndef DEEPAQP_SERVER_REGISTRY_H_
#define DEEPAQP_SERVER_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"
#include "vae/vae_model.h"

namespace deepaqp::server {

/// One immutable, refcounted model version. Sessions hold the shared_ptr,
/// so a hot swap never invalidates a snapshot mid-use: the old version
/// stays alive until its last session lets go, the registry only stops
/// handing it out.
struct ModelSnapshot {
  std::string name;
  /// Monotonic per-name version, starting at 1. A session compares its
  /// snapshot's version against ModelRegistry::VersionOf to detect a swap
  /// (and then resets its client-side caches — stale bitmaps and group
  /// moments from the old generator must never answer new queries).
  uint64_t version = 0;
  std::shared_ptr<const vae::VaeAqpModel> model;
  /// Serialized size (0 when installed from an in-memory model).
  size_t snapshot_bytes = 0;
};

/// Registry of shared read-only models, keyed by name. Loading happens once
/// per Register call (via the checksummed snapshot container); every session
/// of that model shares the result. Thread-safe; lookups are a mutex-guarded
/// map access plus a shared_ptr copy.
class ModelRegistry {
 public:
  /// Parses and installs a model snapshot under `name`. Re-registering an
  /// existing name installs the bytes as the next version (hot swap);
  /// sessions pick the new version up at their next scheduling step.
  /// Returns the installed version. Instrumented with the
  /// `server/registry_load` fail point: an injected (or real) load fault
  /// leaves any previous version untouched and serving.
  util::Result<uint64_t> Register(const std::string& name,
                                  const std::vector<uint8_t>& bytes);

  /// Installs an already-loaded model (tests, in-process embedding).
  uint64_t Install(const std::string& name,
                   std::shared_ptr<const vae::VaeAqpModel> model);

  /// Current snapshot of `name`, or NotFound.
  util::Result<std::shared_ptr<const ModelSnapshot>> Get(
      const std::string& name) const;

  /// Current version of `name` (0 when absent). Cheap staleness probe for
  /// sessions.
  uint64_t VersionOf(const std::string& name) const;

  std::vector<std::string> Names() const;

 private:
  uint64_t InstallLocked(const std::string& name,
                         std::shared_ptr<const vae::VaeAqpModel> model,
                         size_t snapshot_bytes);

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ModelSnapshot>> models_;
};

}  // namespace deepaqp::server

#endif  // DEEPAQP_SERVER_REGISTRY_H_

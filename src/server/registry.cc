#include "server/registry.h"

#include "util/failpoint.h"

namespace deepaqp::server {

util::Result<uint64_t> ModelRegistry::Register(
    const std::string& name, const std::vector<uint8_t>& bytes) {
  if (util::FailpointTriggered("server/registry_load")) {
    return util::FailpointError("server/registry_load");
  }
  // Deserialize outside the lock: loads verify checksums over the whole
  // container and must not stall concurrent lookups.
  DEEPAQP_ASSIGN_OR_RETURN(auto model, vae::VaeAqpModel::Deserialize(bytes));
  std::lock_guard<std::mutex> lock(mu_);
  return InstallLocked(name, std::move(model), bytes.size());
}

uint64_t ModelRegistry::Install(
    const std::string& name, std::shared_ptr<const vae::VaeAqpModel> model) {
  std::lock_guard<std::mutex> lock(mu_);
  return InstallLocked(name, std::move(model), 0);
}

uint64_t ModelRegistry::InstallLocked(
    const std::string& name, std::shared_ptr<const vae::VaeAqpModel> model,
    size_t snapshot_bytes) {
  auto snap = std::make_shared<ModelSnapshot>();
  snap->name = name;
  auto it = models_.find(name);
  snap->version = it == models_.end() ? 1 : it->second->version + 1;
  snap->model = std::move(model);
  snap->snapshot_bytes = snapshot_bytes;
  const uint64_t version = snap->version;
  models_[name] = std::move(snap);
  return version;
}

util::Result<std::shared_ptr<const ModelSnapshot>> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return util::Status::NotFound("no model registered as '" + name + "'");
  }
  return it->second;
}

uint64_t ModelRegistry::VersionOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? 0 : it->second->version;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, snap] : models_) names.push_back(name);
  return names;
}

}  // namespace deepaqp::server

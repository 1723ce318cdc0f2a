#include "util/topology.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/flags.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace deepaqp::util {

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  return cpus;
}

const char* PinPolicyName(PinPolicy policy) {
  return policy == PinPolicy::kCompact ? "compact" : "off";
}

Status ParsePinPolicy(std::string_view name, PinPolicy* policy) {
  if (name == "off") {
    *policy = PinPolicy::kOff;
  } else if (name == "compact") {
    *policy = PinPolicy::kCompact;
  } else {
    return Status::InvalidArgument("unknown pin policy '" +
                                   std::string(name) + "' (off|compact)");
  }
  return Status::OK();
}

namespace {

PinPolicy PolicyFromEnv() {
  const char* env = std::getenv("DEEPAQP_PIN");
  if (env == nullptr || env[0] == '\0') return PinPolicy::kOff;
  PinPolicy policy = PinPolicy::kOff;
  if (const Status st = ParsePinPolicy(env, &policy); !st.ok()) {
    std::fprintf(stderr,
                 "DEEPAQP_PIN='%s' not recognized (off|compact); "
                 "keeping 'off'\n",
                 env);
  }
  return policy;
}

PinPolicy& PolicySlot() {
  static PinPolicy policy = PolicyFromEnv();
  return policy;
}

}  // namespace

PinPolicy ActivePinPolicy() { return PolicySlot(); }

void SetPinPolicy(PinPolicy policy) { PolicySlot() = policy; }

Status ApplyPinFlag(const Flags& flags) {
  const std::string value = flags.GetString(kPinFlag, "");
  if (value.empty()) return Status::OK();
  PinPolicy policy = PinPolicy::kOff;
  if (Status st = ParsePinPolicy(value, &policy); !st.ok()) {
    return Status::InvalidArgument("--pin=" + value +
                                   " not recognized (off|compact)");
  }
  SetPinPolicy(policy);
  return Status::OK();
}

std::vector<int> PlanPlacement(const std::vector<int>& cpus, PinPolicy policy,
                               int lanes) {
  std::vector<int> plan(static_cast<size_t>(std::max(lanes, 0)), -1);
  if (policy == PinPolicy::kOff || cpus.empty()) return plan;
  for (size_t lane = 0; lane < plan.size(); ++lane) {
    plan[lane] = cpus[lane % cpus.size()];
  }
  return plan;
}

bool PinNativeThread(std::thread::native_handle_type handle, int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(handle, sizeof(set), &set) == 0;
#else
  (void)handle;
  (void)cpu;
  return false;
#endif
}

}  // namespace deepaqp::util

#ifndef DEEPAQP_UTIL_FLAGS_H_
#define DEEPAQP_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace deepaqp::util {

/// Canonical name of the global parallelism flag: `--threads=N` sizes the
/// process-wide thread pool (0, the default, means hardware concurrency).
/// Binaries parse it with Flags and apply it via util::ApplyThreadsFlag.
inline constexpr char kThreadsFlag[] = "threads";

/// Minimal command-line flag parser for example/bench binaries. Accepts
/// "--name=value" and "--name value"; a bare "--name" (last, or followed by
/// another flag) reads as "true". Flags fail loudly: a value that does not
/// parse as the type asked for, a flag that no code reads, and an argument
/// that is not a flag's value (`-rows`, a stray word), exit 2 with a
/// message naming it. Not intended as a general-purpose flags
/// library — just enough for reproducible experiment sweeps.
class Flags {
 public:
  /// Parses argv; later occurrences of a flag win.
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;

  /// Each getter returns `def` when the flag is absent and records the name
  /// as read. GetInt/GetDouble/GetBool exit 2 on a present value that does
  /// not parse (GetBool takes true|1|yes and false|0|no).
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// Exits 2 naming every passed flag that no getter has read and every
  /// argument that is neither a flag nor a flag's value. Call once every
  /// flag the binary understands has been read.
  void RejectUnread() const;

 private:
  /// The flag's value, or null when absent; marks `name` as read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> stray_;  // arguments that are not flags
  mutable std::set<std::string> read_;
};

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_FLAGS_H_

#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace deepaqp::util {

namespace {

[[noreturn]] void ExitBadValue(const std::string& name,
                               const std::string& value, const char* want) {
  std::fprintf(stderr, "--%s needs %s value (got '%s')\n", name.c_str(), want,
               value.c_str());
  std::exit(2);
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      stray_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

const std::string* Flags::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  int64_t v = 0;
  if (!ParseInt64(*value, &v)) ExitBadValue(name, *value, "an integer");
  return v;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  double v = 0;
  if (!ParseDouble(*value, &v)) ExitBadValue(name, *value, "a numeric");
  return v;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  ExitBadValue(name, *value, "a true|false");
}

void Flags::RejectUnread() const {
  std::string unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) unread += " --" + name;
  }
  for (const std::string& arg : stray_) unread += " " + arg;
  if (unread.empty()) return;
  std::fprintf(stderr, "unknown argument(s):%s\n", unread.c_str());
  std::exit(2);
}

}  // namespace deepaqp::util

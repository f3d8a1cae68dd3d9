// Key=value configuration with typed getters and defaults. Examples and
// benches accept `key=value` command-line tokens, so every
// experiment parameter in DESIGN.md's index is overridable without recompile.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace wfire::util {

class Config {
 public:
  Config() = default;

  // Parses `key=value` tokens; tokens without '=' raise invalid_argument.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;

  // Typed getters: return the default when the key is absent; throw
  // invalid_argument when present but unparsable.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] int get_int(const std::string& key, int def) const;

  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace wfire::util

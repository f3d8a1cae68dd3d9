#include "util/config.h"

#include <cctype>
#include <stdexcept>

namespace wfire::util {

namespace {
std::string trim(const std::string& s) {
  auto b = s.begin();
  auto e = s.end();
  while (b != e && std::isspace(static_cast<unsigned char>(*b))) ++b;
  while (e != b && std::isspace(static_cast<unsigned char>(*(e - 1)))) --e;
  return {b, e};
}
}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("Config: expected key=value, got " + tok);
    cfg.set(trim(tok.substr(0, eq)), trim(tok.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Config::get_string(const std::string& key,
                               const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

double Config::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("Config: key " + key + " not a double: " +
                                it->second);
  }
}

int Config::get_int(const std::string& key, int def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const int v = std::stoi(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("Config: key " + key + " not an int: " +
                                it->second);
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace wfire::util

#include "pragma/util/cli.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pragma::util {

CliFlags::CliFlags(std::string program_description)
    : description_(std::move(program_description)) {}

void CliFlags::add_int(const std::string& name, long long default_value,
                       const std::string& help) {
  flags_[name] =
      Flag{Type::kInt, help, std::to_string(default_value), false, {}};
}

void CliFlags::add_double(const std::string& name, double default_value,
                          const std::string& help) {
  std::ostringstream os;
  os << default_value;
  flags_[name] = Flag{Type::kDouble, help, os.str(), false, {}};
}

void CliFlags::add_bool(const std::string& name, bool default_value,
                        const std::string& help) {
  flags_[name] =
      Flag{Type::kBool, help, default_value ? "true" : "false", false, {}};
}

void CliFlags::add_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  flags_[name] = Flag{Type::kString, help, default_value, false, {}};
}

bool CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    std::string raw = arg;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end())
      throw std::invalid_argument("unknown flag --" + name);
    if (!has_value) {
      if (it->second.type == Type::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
        raw += " ";
        raw += value;
      } else {
        throw std::invalid_argument("flag --" + name + " requires a value");
      }
    }
    it->second.value = value;
    it->second.set = true;
    it->second.raw = std::move(raw);
  }
  return true;
}

std::size_t CliFlags::merge_env(const std::string& prefix) {
  std::size_t merged = 0;
  for (auto& [name, flag] : flags_) {
    std::string variable = prefix + "_" + name;
    for (char& c : variable) {
      if (c == '-') c = '_';
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    const char* raw = std::getenv(variable.c_str());
    if (raw == nullptr || *raw == '\0') continue;
    // Validate through the same conversions the getters use so a malformed
    // variable fails loudly here, not at first use.
    const std::string value = raw;
    switch (flag.type) {
      case Type::kInt:
        try {
          (void)std::stoll(value);
        } catch (const std::exception&) {
          throw std::invalid_argument("environment variable " + variable +
                                      " is not an integer: " + value);
        }
        break;
      case Type::kDouble:
        try {
          (void)std::stod(value);
        } catch (const std::exception&) {
          throw std::invalid_argument("environment variable " + variable +
                                      " is not a number: " + value);
        }
        break;
      case Type::kBool:
      case Type::kString:
        break;
    }
    flag.value = value;
    flag.set = true;
    flag.raw = variable + "=" + value;
    ++merged;
  }
  return merged;
}

const CliFlags::Flag& CliFlags::find(const std::string& name,
                                     Type type) const {
  auto it = flags_.find(name);
  if (it == flags_.end())
    throw std::out_of_range("flag --" + name + " not registered");
  if (it->second.type != type)
    throw std::out_of_range("flag --" + name + " queried with wrong type");
  return it->second;
}

long long CliFlags::get_int(const std::string& name) const {
  return std::stoll(find(name, Type::kInt).value);
}

double CliFlags::get_double(const std::string& name) const {
  return std::stod(find(name, Type::kDouble).value);
}

bool CliFlags::get_bool(const std::string& name) const {
  const std::string& v = find(name, Type::kBool).value;
  return v == "true" || v == "1" || v == "yes";
}

const std::string& CliFlags::get_string(const std::string& name) const {
  return find(name, Type::kString).value;
}

const CliFlags::Flag& CliFlags::find_any(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end())
    throw std::out_of_range("flag --" + name + " not registered");
  return it->second;
}

bool CliFlags::explicitly_set(const std::string& name) const {
  return find_any(name).set;
}

const std::string& CliFlags::provenance(const std::string& name) const {
  return find_any(name).raw;
}

std::string CliFlags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "Usage: " << program << " [flags]\n";
  if (!description_.empty()) os << description_ << "\n";
  os << "Flags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.value << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

}  // namespace pragma::util

#include "common/cli.hpp"

#include <iostream>
#include <sstream>

#include "common/assert.hpp"

namespace rtdrm {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::addFlag(const std::string& name,
                              const std::string& help, bool* out) {
  RTDRM_ASSERT(out != nullptr && find(name) == nullptr);
  options_.push_back(
      Option{name, help, Kind::kFlag, out, *out ? "true" : "false"});
  return *this;
}

ArgParser& ArgParser::addInt(const std::string& name, const std::string& help,
                             std::int64_t* out) {
  RTDRM_ASSERT(out != nullptr && find(name) == nullptr);
  options_.push_back(
      Option{name, help, Kind::kInt, out, std::to_string(*out)});
  return *this;
}

ArgParser& ArgParser::addDouble(const std::string& name,
                                const std::string& help, double* out) {
  RTDRM_ASSERT(out != nullptr && find(name) == nullptr);
  options_.push_back(
      Option{name, help, Kind::kDouble, out, std::to_string(*out)});
  return *this;
}

ArgParser& ArgParser::addString(const std::string& name,
                                const std::string& help, std::string* out) {
  RTDRM_ASSERT(out != nullptr && find(name) == nullptr);
  options_.push_back(Option{name, help, Kind::kString, out, *out});
  return *this;
}

const ArgParser::Option* ArgParser::find(const std::string& name) const {
  for (const auto& o : options_) {
    if (o.name == name) {
      return &o;
    }
  }
  return nullptr;
}

bool ArgParser::store(const Option& opt, const std::string& value) {
  try {
    switch (opt.kind) {
      case Kind::kFlag: {
        if (value == "true" || value == "1") {
          *static_cast<bool*>(opt.out) = true;
        } else if (value == "false" || value == "0") {
          *static_cast<bool*>(opt.out) = false;
        } else {
          return false;
        }
        return true;
      }
      case Kind::kInt: {
        std::size_t used = 0;
        const std::int64_t v = std::stoll(value, &used);
        if (used != value.size()) {
          return false;
        }
        *static_cast<std::int64_t*>(opt.out) = v;
        return true;
      }
      case Kind::kDouble: {
        std::size_t used = 0;
        const double v = std::stod(value, &used);
        if (used != value.size()) {
          return false;
        }
        *static_cast<double*>(opt.out) = v;
        return true;
      }
      case Kind::kString:
        *static_cast<std::string*>(opt.out) = value;
        return true;
    }
  } catch (...) {
    return false;
  }
  return false;
}

bool ArgParser::parse(int argc, const char* const* argv, std::ostream& out,
                      std::ostream& err) {
  positional_.clear();
  help_requested_ = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      out << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const Option* opt = find(name);
    if (opt == nullptr) {
      err << program_ << ": unknown option --" << name << "\n" << usage();
      return false;
    }
    if (!has_value) {
      if (opt->kind == Kind::kFlag) {
        value = "true";  // bare flag
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        err << program_ << ": option --" << name << " needs a value\n";
        return false;
      }
    }
    if (!store(*opt, value)) {
      err << program_ << ": bad value '" << value << "' for --" << name
          << "\n";
      return false;
    }
  }
  return true;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  return parse(argc, argv, std::cout, std::cerr);
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [options]\n";
  if (!description_.empty()) {
    os << description_ << "\n";
  }
  if (!options_.empty()) {
    os << "options:\n";
  }
  for (const auto& o : options_) {
    os << "  --" << o.name;
    if (o.kind != Kind::kFlag) {
      os << " <value>";
    }
    os << "  " << o.help << " (default: " << o.default_repr << ")\n";
  }
  return os.str();
}

bool flagAtLeast(const char* flag, std::int64_t value, std::int64_t floor) {
  if (value >= floor) {
    return true;
  }
  std::cerr << "--" << flag << " must be at least " << floor << " (got "
            << value << ")\n";
  return false;
}

}  // namespace rtdrm

#include "autocfd/obs/html_util.hpp"

#include <algorithm>
#include <sstream>

namespace autocfd::obs {

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += ch; break;
    }
  }
  return out;
}

std::string html_bar(double frac, const char* color) {
  std::ostringstream os;
  os.precision(1);
  os << "<div class=\"bar\" style=\"width:" << std::fixed
     << std::max(0.0, std::min(frac, 1.0)) * 100.0 << "%;background:"
     << color << "\"></div>";
  return os.str();
}

}  // namespace autocfd::obs

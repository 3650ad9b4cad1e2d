#include "por/obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace por::obs {

namespace {

// ---- shared formatting helpers --------------------------------------------

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---- minimal JSON parser (inverse of to_json) -----------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t integer = 0;
  bool is_integer = false;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] double as_double() const {
    return is_integer ? static_cast<double>(integer) : number;
  }
  [[nodiscard]] std::uint64_t as_u64() const {
    return is_integer ? integer : static_cast<std::uint64_t>(number);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("obs: JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            const unsigned code =
                static_cast<unsigned>(std::stoul(text_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            // We only ever emit \u00XX for control characters.
            out += static_cast<char>(code & 0xFF);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool fractional = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        fractional = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      if (!fractional && token[0] != '-') {
        v.integer = std::stoull(token);
        v.is_integer = true;
        v.number = static_cast<double>(v.integer);
      } else {
        v.number = std::stod(token);
      }
    } catch (const std::exception&) {
      fail("bad number '" + token + "'");
    }
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      break;
    }
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const JsonValue* find(const JsonValue& object, const std::string& key) {
  auto it = object.object.find(key);
  return it == object.object.end() ? nullptr : &it->second;
}

}  // namespace

// ---- JSON ------------------------------------------------------------------

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream os;
  os << "{";

  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << value;
  }
  os << "},";

  os << "\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << fmt_double(value);
  }
  os << "},";

  os << "\"histograms\":{";
  first = true;
  for (const auto& [name, data] : snapshot.histograms) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"bounds\":[";
    for (std::size_t i = 0; i < data.bounds.size(); ++i) {
      if (i > 0) os << ",";
      os << fmt_double(data.bounds[i]);
    }
    os << "],\"buckets\":[";
    for (std::size_t i = 0; i < data.buckets.size(); ++i) {
      if (i > 0) os << ",";
      os << data.buckets[i];
    }
    os << "],\"count\":" << data.count << ",\"sum\":" << fmt_double(data.sum);
    // Derived, not state: snapshot_from_json ignores unknown keys, so
    // round-trip equality is preserved while consumers (BENCH_serve,
    // dashboards) read p50/p95/p99 straight off the export.
    if (data.count > 0) {
      os << ",\"quantiles\":{\"p50\":"
         << fmt_double(histogram_quantile(data, 0.5))
         << ",\"p95\":" << fmt_double(histogram_quantile(data, 0.95))
         << ",\"p99\":" << fmt_double(histogram_quantile(data, 0.99)) << "}";
    }
    os << "}";
  }
  os << "},";

  os << "\"spans\":{";
  first = true;
  for (const auto& [name, data] : snapshot.spans) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"count\":" << data.count
       << ",\"total_ns\":" << data.total_ns << ",\"max_ns\":" << data.max_ns
       << "}";
  }
  os << "}";

  os << "}";
  return os.str();
}

Snapshot snapshot_from_json(const std::string& json) {
  const JsonValue root = JsonParser(json).parse();
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("obs: snapshot JSON must be an object");
  }
  Snapshot snap;
  if (const JsonValue* counters = find(root, "counters")) {
    for (const auto& [name, value] : counters->object) {
      snap.counters.emplace(name, value.as_u64());
    }
  }
  if (const JsonValue* gauges = find(root, "gauges")) {
    for (const auto& [name, value] : gauges->object) {
      snap.gauges.emplace(name, value.as_double());
    }
  }
  if (const JsonValue* histograms = find(root, "histograms")) {
    for (const auto& [name, value] : histograms->object) {
      Snapshot::HistogramData data;
      if (const JsonValue* bounds = find(value, "bounds")) {
        for (const auto& b : bounds->array) data.bounds.push_back(b.as_double());
      }
      if (const JsonValue* buckets = find(value, "buckets")) {
        for (const auto& b : buckets->array) data.buckets.push_back(b.as_u64());
      }
      if (const JsonValue* count = find(value, "count")) {
        data.count = count->as_u64();
      }
      if (const JsonValue* sum = find(value, "sum")) {
        data.sum = sum->as_double();
      }
      snap.histograms.emplace(name, std::move(data));
    }
  }
  if (const JsonValue* spans = find(root, "spans")) {
    for (const auto& [name, value] : spans->object) {
      Snapshot::SpanData data;
      if (const JsonValue* count = find(value, "count")) {
        data.count = count->as_u64();
      }
      if (const JsonValue* total = find(value, "total_ns")) {
        data.total_ns = total->as_u64();
      }
      if (const JsonValue* mx = find(value, "max_ns")) {
        data.max_ns = mx->as_u64();
      }
      snap.spans.emplace(name, data);
    }
  }
  return snap;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("obs: cannot open '" + path + "' for writing");
  }
  out << content;
  if (!out) {
    throw std::runtime_error("obs: short write to '" + path + "'");
  }
}

}  // namespace por::obs

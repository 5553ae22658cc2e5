#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <map>

namespace artsparse::obs {

namespace {

/// Integral values print without a decimal point (counter readings stay
/// grep-able integers); everything else gets shortest-round-trip-ish %g.
std::string format_number(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Prometheus label-value escaping: backslash, quote, newline.
std::string prometheus_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// {org="gcsr",le="1000"} — `extra` appends one more pair (histogram le).
std::string prometheus_labels(const Labels& labels,
                              const std::pair<std::string, std::string>*
                                  extra = nullptr) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  auto append = [&](const std::string& key, const std::string& value) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += prometheus_escape(value);
    out += '"';
  };
  for (const auto& [key, value] : labels) {
    append(key, value);
  }
  if (extra != nullptr) {
    append(extra->first, extra->second);
  }
  out += '}';
  return out;
}

/// Bucket upper bound rendered the Prometheus way: integral bounds
/// without an exponent so `le="1000"` stays readable.
std::string bound_text(double bound) { return format_number(bound); }

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const MetricSample& sample : snapshot.samples) {
    // One HELP/TYPE header per family; label variants follow their first
    // series (the snapshot is sorted by name, so variants are adjacent).
    if (sample.name != last_family) {
      last_family = sample.name;
      if (!sample.help.empty()) {
        out += "# HELP " + sample.name + " " + sample.help + "\n";
      }
      out += "# TYPE " + sample.name + " " +
             std::string(to_string(sample.kind)) + "\n";
    }
    if (sample.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < sample.bucket_counts.size(); ++i) {
        cumulative += sample.bucket_counts[i];
        const std::pair<std::string, std::string> le{
            "le", i < sample.bucket_bounds.size()
                      ? bound_text(sample.bucket_bounds[i])
                      : "+Inf"};
        out += sample.name + "_bucket" +
               prometheus_labels(sample.labels, &le) + " " +
               std::to_string(cumulative) + "\n";
      }
      out += sample.name + "_sum" + prometheus_labels(sample.labels) + " " +
             format_number(sample.observation_sum) + "\n";
      out += sample.name + "_count" + prometheus_labels(sample.labels) +
             " " + std::to_string(sample.observation_count) + "\n";
    } else {
      out += sample.name + prometheus_labels(sample.labels) + " " +
             format_number(sample.value) + "\n";
    }
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"metrics\": [";
  bool first_sample = true;
  for (const MetricSample& sample : snapshot.samples) {
    if (!first_sample) out += ", ";
    first_sample = false;
    out += "{\"name\": \"" + json_escape(sample.name) + "\", \"type\": \"" +
           to_string(sample.kind) + "\"";
    if (!sample.help.empty()) {
      out += ", \"help\": \"" + json_escape(sample.help) + "\"";
    }
    if (!sample.labels.empty()) {
      out += ", \"labels\": {";
      bool first_label = true;
      for (const auto& [key, value] : sample.labels) {
        if (!first_label) out += ", ";
        first_label = false;
        out += '"';
        out += json_escape(key);
        out += "\": \"";
        out += json_escape(value);
        out += '"';
      }
      out += "}";
    }
    if (sample.kind == MetricKind::kHistogram) {
      out += ", \"count\": " + std::to_string(sample.observation_count) +
             ", \"sum\": " + format_number(sample.observation_sum) +
             ", \"buckets\": [";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < sample.bucket_counts.size(); ++i) {
        cumulative += sample.bucket_counts[i];
        if (i != 0) out += ", ";
        out += "{\"le\": ";
        out += i < sample.bucket_bounds.size()
                   ? format_number(sample.bucket_bounds[i])
                   : std::string("\"+Inf\"");
        out += ", \"count\": " + std::to_string(cumulative) + "}";
      }
      out += "]";
    } else {
      out += ", \"value\": " + format_number(sample.value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string trace_to_chrome(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ",\n";
    first = false;
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                  json_escape(span.name).c_str(),
                  json_escape(span.category).c_str(),
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.duration_ns) / 1e3,
                  span.thread);
    out += head;
    out += ", \"args\": {\"span_id\": " + std::to_string(span.id) +
           ", \"parent_id\": " + std::to_string(span.parent);
    for (const auto& [key, value] : span.attrs) {
      out += ", \"" + json_escape(key) + "\": \"" + json_escape(value) +
             "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace artsparse::obs

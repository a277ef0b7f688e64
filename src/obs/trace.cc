#include "src/obs/trace.h"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "src/common/json.h"

namespace cloudtalk {
namespace obs {

namespace {

std::string FormatMicros(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  return buf;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> Trace::AttrsOf(int id) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const TraceAttr& attr : attrs) {
    if (attr.span == id) {
      const std::string_view kv = AttrText(attr);
      const size_t eq = kv.find('=');
      out.emplace_back(std::string(kv.substr(0, eq)),
                       eq == std::string_view::npos ? std::string() : std::string(kv.substr(eq + 1)));
    }
  }
  return out;
}

TraceContext::TraceContext(std::string_view root_name) {
  enabled_ = RuntimeEnabled();
  if (!enabled_) {
    return;
  }
  epoch_ = std::chrono::steady_clock::now();
  spans_.reserve(32);
  attrs_.reserve(64);
  attr_data_.reserve(1024);
  open_stack_.reserve(8);
  TraceSpan root;
  root.id = 0;
  root.parent = -1;
  root.set_name(root_name);
  root.start = 0;
  spans_.push_back(root);
  open_stack_.push_back(0);
}

double TraceContext::Now() {
  last_time_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  return last_time_;
}

int TraceContext::Open(std::string_view name) {
  if (!enabled_) {
    return -1;
  }
  TraceSpan span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.set_name(name);
  span.start = last_time_;  // No clock read: stamped with the latest reading.
  spans_.push_back(span);
  open_stack_.push_back(span.id);
  return span.id;
}

int TraceContext::Event(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>> attrs) {
  if (!enabled_) {
    return -1;
  }
  TraceSpan span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.set_name(name);
  span.start = last_time_;  // No clock read: stamped with the latest reading.
  span.duration = 0;
  span.closed = true;
  for (const auto& [key, value] : attrs) {
    AppendAttr(span.id, key, value);
  }
  spans_.push_back(span);
  return span.id;
}

void TraceContext::AppendAttr(int id, std::string_view key, std::string_view value) {
  const size_t offset = attr_data_.size();
  attr_data_.append(key);
  attr_data_.push_back('=');
  attr_data_.append(value);
  attrs_.push_back(TraceAttr{id, static_cast<uint32_t>(offset),
                             static_cast<uint32_t>(attr_data_.size() - offset)});
}

void TraceContext::Close(int id) {
  if (!enabled_ || id < 0 || id >= static_cast<int>(spans_.size()) || spans_[id].closed) {
    return;
  }
  const double now = Now();
  TraceSpan& span = spans_[id];
  span.duration = now - span.start;
  span.closed = true;
  // Innermost-first discipline: pop through (and including) this span, so a
  // missed Close of a descendant cannot wedge the stack.
  while (!open_stack_.empty()) {
    const int top = open_stack_.back();
    open_stack_.pop_back();
    if (top == id) {
      break;
    }
    if (!spans_[top].closed) {
      spans_[top].duration = now - spans_[top].start;
      spans_[top].closed = true;
    }
  }
}

void TraceContext::Attr(int id, std::string_view key, std::string_view value) {
  if (!enabled_ || id < 0 || id >= static_cast<int>(spans_.size())) {
    return;
  }
  AppendAttr(id, key, value);
}

void TraceContext::Attr(int id, std::string_view key, int64_t value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  Attr(id, key, std::string_view(buf, static_cast<size_t>(end - buf)));
}

void TraceContext::Attr(int id, std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", value);
  Attr(id, key, std::string_view(buf));
}

Trace TraceContext::Finish() {
  Trace trace;
  if (!enabled_) {
    return trace;
  }
  if (!open_stack_.empty()) {
    const double now = Now();
    while (!open_stack_.empty()) {
      const int top = open_stack_.back();
      open_stack_.pop_back();
      if (!spans_[top].closed) {
        spans_[top].duration = now - spans_[top].start;
        spans_[top].closed = true;
      }
    }
  }
  trace.spans = std::move(spans_);
  trace.attrs = std::move(attrs_);
  trace.attr_data = std::move(attr_data_);
  spans_.clear();
  attrs_.clear();
  attr_data_.clear();
  enabled_ = false;
  return trace;
}

std::string FormatTrace(const Trace& trace, bool stable) {
  // Children in creation order, which is also sibling time order (spans are
  // opened sequentially on one thread).
  std::vector<std::vector<int>> children(trace.spans.size());
  std::vector<int> roots;
  for (const TraceSpan& span : trace.spans) {
    if (span.parent < 0) {
      roots.push_back(span.id);
    } else {
      children[span.parent].push_back(span.id);
    }
  }
  std::ostringstream os;
  // Iterative DFS keeps deep traces safe.
  std::vector<std::pair<int, int>> stack;  // (span id, depth)
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    const TraceSpan& span = trace.spans[id];
    os << std::string(static_cast<size_t>(depth) * 2, ' ') << span.name() << " (";
    os << (stable ? "-" : FormatMicros(span.duration)) << ")";
    for (const TraceAttr& attr : trace.attrs) {
      if (attr.span == id) {
        os << " " << trace.AttrText(attr);
      }
    }
    os << "\n";
    for (auto it = children[id].rbegin(); it != children[id].rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  return os.str();
}

std::string TraceToJson(const Trace& trace, bool stable) {
  std::ostringstream os;
  os << "{\"spans\": [";
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpan& span = trace.spans[i];
    if (i > 0) {
      os << ", ";
    }
    os << "{\"id\": " << span.id << ", \"parent\": " << span.parent
       << ", \"name\": " << JsonQuote(span.name());
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.1f", stable ? 0.0 : span.start * 1e6);
    os << ", \"start_us\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.1f", stable ? 0.0 : span.duration * 1e6);
    os << ", \"duration_us\": " << buf;
    const auto attrs = trace.AttrsOf(span.id);
    if (!attrs.empty()) {
      os << ", \"attrs\": {";
      for (size_t a = 0; a < attrs.size(); ++a) {
        if (a > 0) {
          os << ", ";
        }
        os << JsonQuote(attrs[a].first) << ": " << JsonQuote(attrs[a].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace obs
}  // namespace cloudtalk

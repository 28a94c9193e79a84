#include "resilience/journal_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "chaos/file_ops.hpp"
#include "common/bytes.hpp"
#include "common/json.hpp"
#include "resilience/crc32.hpp"
#include "telemetry/telemetry.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace esteem::resilience {

namespace {

const std::string kEmpty;

/// Hex render of a CRC value, fixed width so lines are self-delimiting.
std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

}  // namespace

JournalRecord EventRecord::to_journal() const {
  char sim[32];
  std::snprintf(sim, sizeof sim, "%.3f", sim_us);
  JournalRecord rec;
  rec.kind = "evt";
  rec.fields = {{"t", std::to_string(t_ms)},
                {"sim", sim},
                {"sev", json::scrub(severity)},
                {"src", json::scrub(source)},
                {"lease", hex_u64(lease_id)},
                {"row", std::to_string(row)},
                {"msg", to_hex(message)}};
  return rec;
}

bool EventRecord::from_journal(const JournalRecord& rec, EventRecord& out) {
  if (rec.kind != "evt") return false;
  EventRecord ev;
  if (!json::parse_i64(rec.field("t"), ev.t_ms) ||
      !json::parse_f64(rec.field("sim"), ev.sim_us) ||
      !parse_hex_u64(rec.field("lease"), ev.lease_id) ||
      !json::parse_u64(rec.field("row"), ev.row)) {
    return false;
  }
  ev.severity = rec.field("sev");
  ev.source = rec.field("src");
  const auto msg = from_hex(rec.field("msg"));
  if (!msg) return false;
  ev.message = *msg;
  out = std::move(ev);
  return true;
}

const std::string& JournalRecord::field(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return kEmpty;
}

std::string JournalFile::encode(const JournalRecord& record) {
  std::string body = "{\"v\":1,\"kind\":\"" + json::escape(record.kind) + '"';
  for (const auto& [k, v] : record.fields) {
    body += ",\"" + json::escape(k) + "\":\"" + json::escape(v) + '"';
  }
  const std::uint32_t crc = crc32(body);
  body += ",\"crc\":\"";
  body += crc_hex(crc);
  body += "\"}";
  return body;
}

bool JournalFile::decode(const std::string& line, JournalRecord& out) {
  // Layout check: {"v":1,...,"crc":"xxxxxxxx"}
  static const std::string kPrefix = "{\"v\":1,\"kind\":\"";
  static const std::string kCrcKey = ",\"crc\":\"";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  const std::size_t crc_pos = line.rfind(kCrcKey);
  if (crc_pos == std::string::npos) return false;
  const std::size_t crc_val = crc_pos + kCrcKey.size();
  if (line.size() != crc_val + 8 + 2 || line.compare(crc_val + 8, 2, "\"}") != 0) {
    return false;
  }
  std::uint32_t stored = 0;
  for (std::size_t i = crc_val; i < crc_val + 8; ++i) {
    const char c = line[i];
    std::uint32_t nib = 0;
    if (c >= '0' && c <= '9') nib = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') nib = static_cast<std::uint32_t>(c - 'a' + 10);
    else return false;
    stored = (stored << 4) | nib;
  }
  if (crc32(line.data(), crc_pos) != stored) return false;

  // Body parse: members are "v", "kind", the fields, then "crc"; every one
  // after "v" is a string. Only the exact bytes encode() writes are accepted.
  const auto doc = json::try_parse(line);
  if (!doc || doc->size() < 3) return false;
  JournalRecord rec;
  for (std::size_t i = 1; i + 1 < doc->size(); ++i) {
    if (!doc->item(i).is_string()) return false;
    if (i == 1) {
      rec.kind = doc->item(i).text();
    } else {
      rec.fields.emplace_back(doc->key(i), doc->item(i).text());
    }
  }
  if (rec.kind.empty() || encode(rec) != line) return false;
  out = std::move(rec);
  return true;
}

JournalFile::~JournalFile() { close(); }

void JournalFile::set_domain(const std::string& domain) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pt_open_ = domain + ".open";
  pt_write_ = domain + ".append.write";
  pt_fsync_ = domain + ".append.fsync";
  pt_crash_before_ = domain + ".crash.before_append";
  pt_crash_after_ = domain + ".crash.after_append";
}

bool JournalFile::open(const std::string& path, bool truncate) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
#if !defined(_WIN32)
    ::close(fd_);
#endif
    fd_ = -1;
  }
#if defined(_WIN32)
  last_error_ = "journal: unsupported platform";
  return false;
#else
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  const int fd = chaos::px_open(pt_open_, path.c_str(), flags, 0644);
  if (fd < 0) {
    last_error_ = "journal: cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  fd_ = fd;
  path_ = path;
  last_error_.clear();
  return true;
#endif
}

bool JournalFile::append(const JournalRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) {
    last_error_ = "journal: not open";
    return false;
  }
#if defined(_WIN32)
  return false;
#else
  const std::string line = encode(record) + "\n";
  chaos::crashpoint(pt_crash_before_);
  // One write(2) per record: with O_APPEND the kernel appends the whole
  // buffer at the current end atomically w.r.t. other appenders, so a crash
  // tears at most the final line.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        chaos::px_write(pt_write_, fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      last_error_ = std::string("journal: write failed: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (chaos::px_fsync(pt_fsync_, fd_) != 0) {
    last_error_ = std::string("journal: fsync failed: ") + std::strerror(errno);
    return false;
  }
  chaos::crashpoint(pt_crash_after_);
  return true;
#endif
}

void JournalFile::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
#if !defined(_WIN32)
    ::fsync(fd_);
    ::close(fd_);
#endif
    fd_ = -1;
  }
}

JournalLoadResult JournalFile::load(const std::string& path) {
  JournalLoadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return result;
  result.exists = true;
  static const std::string kRecordStart = "{\"v\":1,\"kind\":\"";
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    JournalRecord rec;
    if (decode(line, rec)) {
      result.records.push_back(std::move(rec));
      continue;
    }
    // Damaged line. With several processes appending, a crash mid-write can
    // leave a *mid-file* short record whose missing newline glued it to the
    // next writer's (intact) line. Refusing the whole journal for that would
    // throw away every good record, so instead salvage: scan for a later
    // record start inside the line, decode the suffix, and count only the
    // torn fragment as damage. The CRC on the salvaged suffix keeps this
    // honest — a false record-start match simply fails to decode.
    ++result.corrupt_lines;
    std::size_t pos = line.find(kRecordStart, 1);
    while (pos != std::string::npos) {
      if (decode(line.substr(pos), rec)) {
        result.records.push_back(std::move(rec));
        break;
      }
      pos = line.find(kRecordStart, pos + 1);
    }
  }
  // A file whose last byte is not '\n' ends in a torn append; getline already
  // delivered that fragment and decode() rejected it via the CRC.
  if (result.corrupt_lines > 0 && telemetry::active()) {
    telemetry::registry().counter("journal.damaged_lines")
        .add(result.corrupt_lines);
  }
  return result;
}

}  // namespace esteem::resilience

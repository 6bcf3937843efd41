#include "storage/session_store.hpp"

#include <cctype>
#include <utility>

#include "storage/counters.hpp"
#include "storage/file_io.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"

namespace dslayer::storage {

namespace {

using dslayer::cat;

constexpr std::string_view kSuffix = ".jsonl";

bool plain(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '-';
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

SessionStore::SessionStore(std::string dir) : dir_(std::move(dir)) {
  DSLAYER_REQUIRE(!dir_.empty(), "session store needs a directory");
  ensure_directory(dir_);
}

std::string SessionStore::encode_name(const std::string& session) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(session.size());
  for (const char c : session) {
    if (plain(c)) {
      out.push_back(c);
    } else {
      const auto byte = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(hex[byte >> 4]);
      out.push_back(hex[byte & 0xF]);
    }
  }
  return out;
}

std::string SessionStore::decode_name(const std::string& file_stem) {
  std::string out;
  out.reserve(file_stem.size());
  for (std::size_t i = 0; i < file_stem.size(); ++i) {
    if (file_stem[i] == '%' && i + 2 < file_stem.size()) {
      const int hi = hex_value(file_stem[i + 1]);
      const int lo = hex_value(file_stem[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(file_stem[i]);
  }
  return out;
}

std::string SessionStore::file_path(const std::string& session) const {
  return cat(dir_, "/", encode_name(session), kSuffix);
}

void SessionStore::save(const std::string& session, std::string_view jsonl) {
  DSLAYER_FAILPOINT("storage.session.flush");
  const std::string final_path = file_path(session);
  const std::string tmp = cat(final_path, ".tmp");
  File file = File::create_truncate(tmp);
  file.write_all(jsonl);
  file.sync();
  file.close();
  DSLAYER_FAILPOINT("storage.session.rename");
  rename_into_place(tmp, final_path);
  counters().session_flushes.add();
}

void SessionStore::append(const std::string& session, std::string_view jsonl_suffix) {
  DSLAYER_FAILPOINT("storage.session.flush");
  File file = File::open_readwrite(file_path(session));
  file.seek_end();
  file.write_all(jsonl_suffix);
  file.sync();
  counters().session_flushes.add();
}

std::optional<std::string> SessionStore::load(const std::string& session) const {
  const std::string path = file_path(session);
  if (!path_exists(path)) return std::nullopt;
  std::string text = read_file(path);
  // Drop a torn final line: a crash mid-append leaves a prefix without
  // its newline, and a half-written JSON object must not be replayed. It
  // is cut off the file too, so the file holds exactly the text returned
  // and a later append continues it.
  if (!text.empty() && text.back() != '\n') {
    const std::size_t last_newline = text.find_last_of('\n');
    text.resize(last_newline == std::string::npos ? 0 : last_newline + 1);
    File::open_readwrite(path).truncate(text.size());
  }
  return text;
}

void SessionStore::remove(const std::string& session) {
  remove_file(file_path(session));
  remove_file(cat(file_path(session), ".tmp"));
}

std::vector<std::string> SessionStore::list() const {
  std::vector<std::string> out;
  for (const std::string& name : list_directory(dir_)) {
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
      continue;
    }
    out.push_back(decode_name(name.substr(0, name.size() - kSuffix.size())));
  }
  return out;
}

}  // namespace dslayer::storage

#include "obs/statefile.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace wfire::obs {

namespace {

constexpr char kMagic[4] = {'W', 'F', 'S', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr char kTempSuffix[] = ".tmp";

// Flushes a just-written file (and, for the rename to be durable, its
// directory) to stable storage. Best effort: fsync failures surface as a
// throw from the caller only when the data write itself failed.
void sync_path(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

void sync_parent_dir(const std::string& path) {
#ifndef _WIN32
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("StateFile: truncated file");
  return v;
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("StateFile: truncated file");
  return v;
}

void check_header(std::istream& in, const std::string& path) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("StateFile: bad magic in " + path);
  const std::uint32_t version = read_u32(in);
  if (version != kVersion)
    throw std::runtime_error("StateFile: unsupported version in " + path);
}

// Bytes between the read position and the end of the stream; the read
// position is left where it was.
std::uint64_t bytes_left(std::istream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  if (!in || here < 0 || end < here)
    throw std::runtime_error("StateFile: unreadable file");
  return static_cast<std::uint64_t>(end - here);
}

struct SectionHeader {
  std::string name;
  std::uint64_t count = 0;  // doubles in the payload that follows
};

// Reads one section header. Both lengths come from the file, so each is
// bounded by the bytes left in it: a corrupt header fails here with a clean
// error instead of allocating or seeking without bound.
SectionHeader read_section_header(std::istream& in) {
  SectionHeader h;
  const std::uint32_t len = read_u32(in);
  if (len > bytes_left(in))
    throw std::runtime_error("StateFile: truncated file");
  h.name.assign(len, '\0');
  in.read(h.name.data(), len);
  h.count = read_u64(in);
  if (h.count > bytes_left(in) / sizeof(double))
    throw std::runtime_error("StateFile: section " + h.name +
                             " claims more data than the file holds");
  return h;
}

void skip_payload(std::istream& in, const SectionHeader& h) {
  in.seekg(static_cast<std::streamoff>(h.count * sizeof(double)),
           std::ios::cur);
}

std::vector<double> read_payload(std::istream& in, const SectionHeader& h) {
  std::vector<double> values(h.count);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(h.count * sizeof(double)));
  if (!in) throw std::runtime_error("StateFile: truncated section " + h.name);
  return values;
}

}  // namespace

void StateFile::write(const std::string& path, const Sections& sections) {
  // Crash safety: build the file next to its destination, sync it, then
  // atomically rename over the target. Readers only ever see either the old
  // complete file or the new complete file; a kill mid-write leaves only a
  // *.tmp that discovery skips.
  const std::string tmp = path + kTempSuffix;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("StateFile: cannot open " + tmp);
    out.write(kMagic, 4);
    write_u32(out, kVersion);
    write_u32(out, static_cast<std::uint32_t>(sections.size()));
    for (const auto& [name, values] : sections) {
      write_u32(out, static_cast<std::uint32_t>(name.size()));
      out.write(name.data(), static_cast<std::streamsize>(name.size()));
      write_u64(out, values.size());
      out.write(reinterpret_cast<const char*>(values.data()),
                static_cast<std::streamsize>(values.size() * sizeof(double)));
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("StateFile: write failed for " + tmp);
    }
  }
  sync_path(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("StateFile: cannot publish " + path);
  }
  sync_parent_dir(path);
}

bool StateFile::is_temp_path(const std::string& path) {
  const std::size_t n = sizeof(kTempSuffix) - 1;
  return path.size() >= n && path.compare(path.size() - n, n, kTempSuffix) == 0;
}

Sections StateFile::read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("StateFile: cannot open " + path);
  check_header(in, path);
  const std::uint32_t n = read_u32(in);
  Sections out;
  for (std::uint32_t s = 0; s < n; ++s) {
    SectionHeader h = read_section_header(in);
    std::vector<double> values = read_payload(in, h);
    out.emplace(std::move(h.name), std::move(values));
  }
  return out;
}

std::vector<std::pair<std::string, std::size_t>> StateFile::list_sections(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("StateFile: cannot open " + path);
  check_header(in, path);
  const std::uint32_t n = read_u32(in);
  std::vector<std::pair<std::string, std::size_t>> out;
  for (std::uint32_t s = 0; s < n; ++s) {
    SectionHeader h = read_section_header(in);
    skip_payload(in, h);
    if (!in) throw std::runtime_error("StateFile: truncated file " + path);
    out.emplace_back(std::move(h.name), static_cast<std::size_t>(h.count));
  }
  return out;
}

std::vector<double> StateFile::extract(const std::string& path,
                                       const std::string& name) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("StateFile: cannot open " + path);
  check_header(in, path);
  const std::uint32_t n = read_u32(in);
  for (std::uint32_t s = 0; s < n; ++s) {
    const SectionHeader h = read_section_header(in);
    if (h.name == name) return read_payload(in, h);
    skip_payload(in, h);
  }
  throw std::runtime_error("StateFile: section not found: " + name);
}

void StateFile::replace(const std::string& path, const std::string& name,
                        std::span<const double> values) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!io) throw std::runtime_error("StateFile: cannot open " + path);
  check_header(io, path);
  const std::uint32_t n = read_u32(io);
  for (std::uint32_t s = 0; s < n; ++s) {
    const SectionHeader h = read_section_header(io);
    if (h.name == name) {
      if (h.count != values.size())
        throw std::runtime_error("StateFile: size mismatch replacing " + name);
      io.write(reinterpret_cast<const char*>(values.data()),
               static_cast<std::streamsize>(values.size() * sizeof(double)));
      if (!io) throw std::runtime_error("StateFile: replace failed: " + name);
      return;
    }
    skip_payload(io, h);
  }
  throw std::runtime_error("StateFile: section not found: " + name);
}

}  // namespace wfire::obs

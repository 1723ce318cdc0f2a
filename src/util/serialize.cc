#include "util/serialize.h"

#include <cstdio>

#include "util/failpoint.h"

namespace deepaqp::util {

void ByteWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  AppendRaw(s.data(), s.size());
}

void ByteWriter::WriteF32Vector(const std::vector<float>& v) {
  WriteU64(v.size());
  AppendRaw(v.data(), v.size() * sizeof(float));
}

void ByteWriter::WriteF32Array(const float* p, size_t n) {
  WriteU64(n);
  AppendRaw(p, n * sizeof(float));
}

void ByteWriter::WriteF64Vector(const std::vector<double>& v) {
  WriteU64(v.size());
  AppendRaw(v.data(), v.size() * sizeof(double));
}

void ByteWriter::WriteI32Vector(const std::vector<int32_t>& v) {
  WriteU64(v.size());
  AppendRaw(v.data(), v.size() * sizeof(int32_t));
}

Status ByteReader::Take(void* out, size_t n) {
  // pos_ <= size_ always holds, so this cannot wrap (pos_ + n could).
  if (n > size_ - pos_) {
    return Status::OutOfRange("ByteReader: truncated buffer");
  }
  // memcpy needs valid pointers even for n == 0, and an empty vector's
  // data() (a zero-length read's destination) may be null.
  if (n == 0) return Status::OK();
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<uint8_t> ByteReader::ReadU8() {
  uint8_t v = 0;
  DEEPAQP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}
Result<uint32_t> ByteReader::ReadU32() {
  uint32_t v = 0;
  DEEPAQP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}
Result<uint64_t> ByteReader::ReadU64() {
  uint64_t v = 0;
  DEEPAQP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}
Result<int32_t> ByteReader::ReadI32() {
  int32_t v = 0;
  DEEPAQP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}
Result<int64_t> ByteReader::ReadI64() {
  int64_t v = 0;
  DEEPAQP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}
Result<float> ByteReader::ReadF32() {
  float v = 0;
  DEEPAQP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}
Result<double> ByteReader::ReadF64() {
  double v = 0;
  DEEPAQP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}

Result<std::string> ByteReader::ReadString() {
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  // Compare against the remainder (not pos_ + n, which can wrap for a
  // hostile length field).
  if (n > size_ - pos_) {
    return Status::OutOfRange("ByteReader: truncated string");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<std::vector<float>> ByteReader::ReadF32Vector() {
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > (size_ - pos_) / sizeof(float)) {
    return Status::OutOfRange("ByteReader: truncated f32 vector");
  }
  std::vector<float> v(n);
  DEEPAQP_RETURN_IF_ERROR(Take(v.data(), n * sizeof(float)));
  return v;
}

Result<std::vector<double>> ByteReader::ReadF64Vector() {
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > (size_ - pos_) / sizeof(double)) {
    return Status::OutOfRange("ByteReader: truncated f64 vector");
  }
  std::vector<double> v(n);
  DEEPAQP_RETURN_IF_ERROR(Take(v.data(), n * sizeof(double)));
  return v;
}

Result<std::vector<int32_t>> ByteReader::ReadI32Vector() {
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > (size_ - pos_) / sizeof(int32_t)) {
    return Status::OutOfRange("ByteReader: truncated i32 vector");
  }
  std::vector<int32_t> v(n);
  DEEPAQP_RETURN_IF_ERROR(Take(v.data(), n * sizeof(int32_t)));
  return v;
}

Result<std::vector<uint8_t>> ByteReader::ReadBytes(size_t n) {
  if (n > size_ - pos_) {
    return Status::OutOfRange("ByteReader: truncated raw bytes");
  }
  std::vector<uint8_t> v(n);
  DEEPAQP_RETURN_IF_ERROR(Take(v.data(), n));
  return v;
}

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  // Chaos site: simulated full disk / permission flap on persist.
  if (FailpointTriggered("io/write")) return FailpointError("io/write");
  const std::string tmp = path + ".tmp";
  DEEPAQP_RETURN_IF_ERROR(WriteFile(tmp, bytes));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("atomic rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  // Chaos site: simulated unreadable file on load.
  if (FailpointTriggered("io/read")) return FailpointError("io/read");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) return Status::IOError("short read: " + path);
  return bytes;
}

}  // namespace deepaqp::util

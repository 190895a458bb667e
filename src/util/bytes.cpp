#include "util/bytes.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "util/fault.hpp"

namespace cybok::util {

std::string read_file(const std::string& path) {
    CYBOK_FAULT_POINT("util.bytes.read_file.open",
                      IoError("injected: cannot open file for reading: " + path));
    // fopen/fread, not ifstream: one syscall-sized read into a pre-sized
    // buffer, no stream-buffer indirection, no intermediate copy.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw IoError("cannot open file for reading: " + path);
    std::string out;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        const long size = std::ftell(f);
        if (size > 0) out.resize(static_cast<std::size_t>(size));
        std::rewind(f);
    }
    std::size_t got = 0;
    if (!out.empty()) got = std::fread(out.data(), 1, out.size(), f);
    if (std::ferror(f) != 0) {
        std::fclose(f);
        throw IoError("read failed: " + path);
    }
    // Regular files deliver their full stat size in the single read above;
    // pipes/devices report size 0 and drain through the chunked appends.
    out.resize(got);
    char chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) out.append(chunk, n);
    if (std::ferror(f) != 0) {
        std::fclose(f);
        throw IoError("read failed: " + path);
    }
    std::fclose(f);
    CYBOK_FAULT_POINT("util.bytes.read_file.read", IoError("injected: read failed: " + path));
    return out;
}

void write_file(const std::string& path, std::string_view bytes) {
    CYBOK_FAULT_POINT("util.bytes.write_file.open",
                      IoError("injected: cannot open file for writing: " + path));
    // Write a sibling temp file and rename it over `path`. A process that
    // has the old file mapped keeps the old inode (truncating it in place
    // would SIGBUS the mapping), and a failed write leaves the previous
    // file intact. The pid + counter suffix keeps concurrent writers of
    // one path, in this process or another, off each other's temp file.
    static std::atomic<std::uint64_t> writes{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                            std::to_string(writes.fetch_add(1, std::memory_order_relaxed));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) throw IoError("cannot open file for writing: " + path);
    if (fault_should_fire("util.bytes.write_file.write")) {
        // Model a device-full partial write: only a prefix reaches the
        // temp file, which is discarded like any other failed write.
        if (!bytes.empty()) (void)std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
        std::fclose(f);
        (void)std::remove(tmp.c_str());
        throw IoError("injected: short write: " + path);
    }
    const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool flushed = std::fflush(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (wrote != bytes.size() || !flushed || !closed) {
        (void)std::remove(tmp.c_str());
        throw IoError("short write: " + path);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        (void)std::remove(tmp.c_str());
        throw IoError("cannot replace file: " + path);
    }
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void ByteWriter::u32(std::uint32_t v) {
    char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8), static_cast<char>(v >> 16),
                 static_cast<char>(v >> 24)};
    buf_.append(b, sizeof b);
}

void ByteWriter::u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, sizeof b);
}

void ByteWriter::f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(bits);
}

void ByteWriter::f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void ByteWriter::str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
}

std::string_view ByteReader::take(std::size_t n) {
    if (n > remaining()) throw ParseError("unexpected end of binary input", pos_);
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
}

std::uint8_t ByteReader::u8() {
    return static_cast<std::uint8_t>(take(1)[0]);
}

std::uint32_t ByteReader::u32() {
    std::string_view b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i]))
                                     << (8 * i);
    return v;
}

std::uint64_t ByteReader::u64() {
    std::string_view b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
                                     << (8 * i);
    return v;
}

float ByteReader::f32() {
    std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

double ByteReader::f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string ByteReader::str() {
    const std::uint32_t n = u32();
    return std::string(take(n));
}

void write_slab_ref(ByteWriter& w, const SlabRef& ref) {
    w.u64(ref.offset);
    w.u64(ref.size);
}

SlabRef read_slab_ref(ByteReader& r) {
    SlabRef ref;
    ref.offset = r.u64();
    ref.size = r.u64();
    return ref;
}

SlabRef SlabWriter::add(std::string_view bytes, std::size_t align) {
    const std::size_t at = align_up(buf_.size(), align);
    buf_.resize(at, '\0'); // deterministic zero padding
    buf_.append(bytes);
    return SlabRef{at, bytes.size()};
}

std::string_view SlabView::slice(const SlabRef& ref) const {
    if (ref.offset > bytes_.size() || ref.size > bytes_.size() - ref.offset)
        throw ParseError("slab reference out of range", static_cast<std::size_t>(ref.offset));
    return bytes_.substr(ref.offset, ref.size);
}

AlignedBuffer::AlignedBuffer(std::string_view bytes) : size_(bytes.size()) {
    if (size_ == 0) return;
    buf_.reset(static_cast<char*>(::operator new(size_, std::align_val_t{64})));
    std::memcpy(buf_.get(), bytes.data(), size_);
}

F64Table F64Table::view(std::string_view bytes) {
    if (bytes.size() % sizeof(double) != 0)
        throw ParseError("f64 slab size is not a multiple of 8", 0);
    if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(double) != 0)
        throw ParseError("f64 slab is misaligned", 0);
    F64Table t;
    t.data_ = reinterpret_cast<const double*>(bytes.data());
    t.size_ = bytes.size() / sizeof(double);
    return t;
}

} // namespace cybok::util

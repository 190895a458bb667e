// Little-endian byte-level IO for the binary snapshot format (and any
// future compact codec): an appending ByteWriter over a growable buffer, a
// bounds-checked ByteReader over a view, an FNV-1a 64 checksum, and a
// one-shot pre-sized file reader.
//
// Every multi-byte value is written little-endian regardless of host
// endianness, so a snapshot produced on one machine thaws on any other.
// Strings and vectors are length-prefixed (u32 count), which lets the
// reader pre-size its allocations and reject truncated input before
// copying anything.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace cybok::util {

// The slab layer (SlabWriter / SlabView / F64Table / the postings codec)
// serves fixed-width tables directly out of snapshot bytes — owned or
// mmap'ed — without a decode pass, which requires the in-memory and
// on-disk layouts to be the same. The build toolchain targets
// little-endian hosts only (x86-64 / AArch64); a big-endian port would
// need byte-swapping views here.
static_assert(std::endian::native == std::endian::little,
              "snapshot slabs are served in place and assume a little-endian host");

/// Read a whole file into a pre-sized buffer with one read() call —
/// replaces rdbuf-to-stringstream extraction, which copies the content
/// twice and reallocates along the way. Throws IoError.
[[nodiscard]] std::string read_file(const std::string& path);

/// Write `bytes` to `path`, replacing any existing file atomically: the
/// bytes go to a sibling temp file that is then renamed over `path`, so
/// readers (and live mappings) see the old file or the new one, never a
/// torn one. Throws IoError on open failure, short write or failed
/// rename; the previous file is then left intact and no temp file remains.
void write_file(const std::string& path, std::string_view bytes);

/// FNV-1a 64-bit checksum (the snapshot integrity check: fast, simple,
/// and sensitive to any single-byte corruption).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Appends little-endian primitives to an owned buffer.
class ByteWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f32(float v);
    void f64(double v);
    /// u32 length prefix + raw bytes.
    void str(std::string_view s);

    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }
    [[nodiscard]] std::string take() && { return std::move(buf_); }

private:
    std::string buf_;
};

/// Bounds-checked little-endian reads over a borrowed view. Every read
/// past the end throws ParseError with the offending offset; the caller
/// (kb/snapshot.cpp) turns that into a typed SnapshotError.
class ByteReader {
public:
    explicit ByteReader(std::string_view data) noexcept : data_(data) {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] float f32();
    [[nodiscard]] double f64();
    [[nodiscard]] std::string str();

    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
    [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t position() const noexcept { return pos_; }

private:
    /// The next `n` raw bytes, advancing; throws ParseError when fewer remain.
    std::string_view take(std::size_t n);

    std::string_view data_;
    std::size_t pos_ = 0;
};

/// Round `n` up to a multiple of `align` (align must be a power of two).
[[nodiscard]] constexpr std::size_t align_up(std::size_t n, std::size_t align) noexcept {
    return (n + align - 1) & ~(align - 1);
}

/// Location of one slab inside a snapshot's slab section.
struct SlabRef {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
};

void write_slab_ref(ByteWriter& w, const SlabRef& ref);
[[nodiscard]] SlabRef read_slab_ref(ByteReader& r);

/// Appends aligned byte ranges ("slabs") to one buffer, zero-padding the
/// gaps so the output is byte-deterministic. Because the snapshot frame
/// places the slab section at a 64-byte-aligned offset (and an mmap base
/// is page-aligned), a slab added with the default alignment is 64-byte
/// aligned in the final mapping — safe to reinterpret as an array of
/// doubles or packed posting structs and use in place.
class SlabWriter {
public:
    /// Append `bytes` at the next `align`-aligned offset; returns where it
    /// landed. `align` must be a power of two <= 64.
    SlabRef add(std::string_view bytes, std::size_t align = 64);

    [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }
    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] std::string take() && { return std::move(buf_); }

private:
    std::string buf_;
};

/// Bounds-checked view over a snapshot's slab section. slice() validates a
/// SlabRef read from the eager section before anything dereferences it;
/// out-of-range refs throw ParseError (rebased to SnapshotError by the
/// engine thaw path, like every other payload decode failure).
class SlabView {
public:
    SlabView() = default;
    explicit SlabView(std::string_view bytes) noexcept : bytes_(bytes) {}

    [[nodiscard]] std::string_view slice(const SlabRef& ref) const;
    [[nodiscard]] const char* base() const noexcept { return bytes_.data(); }
    [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

private:
    std::string_view bytes_;
};

/// A 64-byte-aligned owning byte buffer — the backing for owning snapshot
/// thaws. std::string offers no alignment guarantee, and the slab tables
/// are reinterpreted in place, so the owning path copies the slab section
/// into one of these (a single memcpy) instead of keeping the whole blob.
class AlignedBuffer {
public:
    AlignedBuffer() = default;
    explicit AlignedBuffer(std::string_view bytes);

    [[nodiscard]] const char* data() const noexcept { return buf_.get(); }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::string_view view() const noexcept { return {buf_.get(), size_}; }

private:
    struct Free {
        void operator()(char* p) const noexcept { ::operator delete(p, std::align_val_t{64}); }
    };
    std::unique_ptr<char, Free> buf_;
    std::size_t size_ = 0;
};

/// A read-only array of doubles that either owns its storage (fresh build)
/// or views an 8-byte-aligned little-endian slab in place (snapshot thaw —
/// owned copy or mmap, no per-element decode either way).
class F64Table {
public:
    F64Table() = default;

    [[nodiscard]] static F64Table own(std::vector<double> v) {
        F64Table t;
        t.owned_ = std::move(v);
        t.data_ = t.owned_.data();
        t.size_ = t.owned_.size();
        return t;
    }
    /// View `bytes` as doubles in place. `bytes.data()` must be 8-byte
    /// aligned (slabs are 64-aligned) and `bytes.size()` a multiple of 8;
    /// violations throw ParseError.
    [[nodiscard]] static F64Table view(std::string_view bytes);

    [[nodiscard]] const double* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] double operator[](std::size_t i) const noexcept { return data_[i]; }
    /// True when this table owns its storage (vs viewing snapshot bytes).
    [[nodiscard]] bool owning() const noexcept { return data_ == nullptr || !owned_.empty(); }

    /// The table's bytes for freezing into a slab (identical whether the
    /// table owns or views — slab round-trips are bit-exact).
    [[nodiscard]] std::string_view bytes() const noexcept {
        return {reinterpret_cast<const char*>(data_), size_ * sizeof(double)};
    }

private:
    std::vector<double> owned_;
    const double* data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace cybok::util

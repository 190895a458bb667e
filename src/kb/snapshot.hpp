// The versioned binary snapshot format — the build-once/serve-many half
// of the ingest path. A v2 snapshot blob is a fixed 64-byte header
// followed by two sections:
//
//   [ 0] magic "CYBOKSNP" (8)
//   [ 8] version u32            (must stay at offset 8 across versions)
//   [12] eager section size u64
//   [20] slab section size u64
//   [28] fnv1a64(eager) u64
//   [36] fnv1a64(slabs) u64
//   [44] reserved, zero (20)
//   [64] eager section ...
//   [64 + align64(eager size)] slab section ...
//
// The *eager* section is small structured state — corpus records,
// options, vocabularies, counts, SlabRefs — produced/consumed with
// util::ByteWriter/ByteReader and always decoded on thaw. The *slab*
// section holds the big flat tables (compressed postings, f64 score
// tables) built with util::SlabWriter: every slab is 64-byte aligned
// relative to the section start, and the section itself sits at a
// 64-byte-aligned blob offset, so a page-aligned mmap of the file can
// serve the tables in place — no decode, no copy, cold start is
// O(page faults actually taken). This file owns the framing (seal /
// open) and the corpus record codec; the engine-level content is frozen
// by text::InvertedIndex / search::SearchEngine on top of it (layering:
// kb cannot see search).
//
// Integrity: the eager checksum is always verified (it is small and it
// frames everything else). The slab checksum is verified on the owning
// read_file path, but callers serving straight from an mmap skip it —
// hashing every slab byte would fault in the whole file and defeat the
// zero-copy start. Slabs are instead validated structurally at thaw
// (PostingStore::from_slabs, F64Table::view) and packed posting bytes
// carry per-block self-checks at decode time, so a flipped bit in a
// mapped file still dies on a typed error, just lazily.
// Every malformed frame — wrong magic, unknown version, truncation,
// checksum mismatch — is rejected with a typed SnapshotError before any
// section byte is interpreted.

#pragma once

#include <string>
#include <string_view>

#include "kb/corpus.hpp"
#include "util/bytes.hpp"

namespace cybok::kb {

/// A snapshot blob was rejected: bad magic, version mismatch, truncation,
/// checksum failure, or trailing bytes. The message names which, and —
/// when the blob came from a file — carries the source path and the byte
/// offset of the violation so fault-matrix failures are diagnosable from
/// the message alone ("snapshot: checksum mismatch [/tmp/x.snap @ byte 20]").
class SnapshotError : public Error {
public:
    explicit SnapshotError(const std::string& what) : Error(what) {}
    SnapshotError(const std::string& what, std::string path, std::size_t offset)
        : Error(what + " [" + (path.empty() ? std::string("<memory>") : path) + " @ byte " +
                std::to_string(offset) + "]"),
          path_(std::move(path)),
          offset_(offset) {}

    /// Source file, empty for in-memory blobs.
    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    /// Byte offset (into the framed blob) where validation failed.
    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
    std::string path_;
    std::size_t offset_ = 0;
};

/// Current snapshot format version. Bump on any layout change;
/// open_snapshot rejects every other version (snapshots are rebuild-cheap
/// caches, not archival data — no migration machinery). v1 was a single
/// eagerly-decoded payload; v2 split out the aligned slab section; v3
/// dropped the ranker tag and the TF-IDF tables (BM25 is the only ranker).
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Fixed frame-header size (see the layout at the top of this file).
/// Eager byte i sits at blob offset kSnapshotHeaderSize + i, which is how
/// eager decode errors are rebased into whole-blob offsets. 64 bytes also
/// makes the eager section start 64-byte aligned.
inline constexpr std::size_t kSnapshotHeaderSize = 64;

/// The two sections of an opened snapshot, viewing the caller's blob.
/// `slabs` starts at a 64-byte-aligned blob offset, so when the blob
/// itself is 64-byte aligned (an mmap or an AlignedBuffer) every SlabRef
/// inside it resolves to 64-byte-aligned memory.
struct SnapshotSections {
    std::string_view eager;
    std::string_view slabs;
};

/// Byte offset of the slab section inside a blob with `eager_size` eager
/// bytes (the gap is deterministic zero padding).
[[nodiscard]] constexpr std::size_t snapshot_slab_offset(std::size_t eager_size) noexcept {
    return kSnapshotHeaderSize + util::align_up(eager_size, 64);
}

/// Frame the two sections: header + eager + padding + slabs.
[[nodiscard]] std::string seal_snapshot(std::string_view eager, std::string_view slabs);

/// Validate the frame and return views of both sections inside `blob`.
/// Throws SnapshotError on any header or integrity violation; `source`
/// (the originating file path, empty for in-memory blobs) is threaded
/// into the error for diagnosability. `verify_slab_checksum` is disabled
/// by the mmap serve path only (see the integrity note above); the eager
/// checksum is unconditional.
[[nodiscard]] SnapshotSections open_snapshot(std::string_view blob, std::string_view source = {},
                                             bool verify_slab_checksum = true);

/// Corpus record codec (records only; thaw_corpus reindexes, which is
/// cheap — id maps and platform bindings, no text analysis).
void freeze_corpus(util::ByteWriter& w, const Corpus& corpus);
[[nodiscard]] Corpus thaw_corpus(util::ByteReader& r);

/// Single-record codecs — the unit the corpus codec above loops over,
/// exposed so the delta blob (kb/delta.hpp) serializes records in the
/// exact same byte layout. Weakness.related_patterns is derived state and
/// is never serialized (reindex() rebuilds it).
void freeze_record(util::ByteWriter& w, const AttackPattern& p);
void freeze_record(util::ByteWriter& w, const Weakness& wk);
void freeze_record(util::ByteWriter& w, const Vulnerability& v);
[[nodiscard]] AttackPattern thaw_pattern(util::ByteReader& r);
[[nodiscard]] Weakness thaw_weakness(util::ByteReader& r);
[[nodiscard]] Vulnerability thaw_vulnerability(util::ByteReader& r);

} // namespace cybok::kb

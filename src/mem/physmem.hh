/**
 * @file
 * Sparse physical memory, allocated at page granularity on first
 * touch. The attack's eviction-set sweeps span hundreds of megabytes
 * of address space but only touch a handful of pages per stride, so
 * sparse backing keeps the footprint tiny.
 *
 * Two lookup paths back the same byte-level contract:
 *
 *  - The *frame table* (default): two direct-indexed windows of page
 *    frames covering the simulated DRAM ranges (the linear-mapped
 *    user half below 32 GB and the first GB of the kernel half's
 *    frames). Frame chunks are allocated lazily, so a boot costs a
 *    few KB of pointers, and every load/store/fetch resolves with two
 *    compares and two array indexes instead of a hash lookup.
 *  - The *sparse map* fallback: an `unordered_map` keyed by PPN, used
 *    for frames outside the windows (huge synthetic addresses, device
 *    frames) — and for everything at the Reference fast-path level
 *    (`fastFrames = false`).
 *
 * Both paths are bit-identical by contract; the fast-vs-slow
 * equivalence suite (tests/runner/test_fastpath_equiv.cc) proves it
 * end to end.
 *
 * Every backed page also carries a *write generation*: a label drawn
 * from a single monotonic counter on every write touching the page.
 * The CPU's decoded-instruction and superblock caches validate
 * entries against it, which is what makes self-modifying code safe
 * without any invalidation callbacks on the store hot path. Each
 * label is permanently bound to one byte image of its page: writes
 * draw fresh labels (the counter is never rewound), and a snapshot
 * restore reapplies the captured label together with the captured
 * bytes it has always described. A generation match therefore always
 * implies identical page bytes, across restores included — which is
 * what lets the decode and superblock caches survive
 * Machine::restore() unflushed, with entries from before the capture
 * validating again afterwards.
 */

#ifndef PACMAN_MEM_PHYSMEM_HH
#define PACMAN_MEM_PHYSMEM_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"
#include "isa/pointer.hh"

namespace pacman::mem
{

using isa::Addr;

/** Byte-addressable sparse physical memory. */
class PhysMem
{
  public:
    /**
     * @param fastFrames Use the direct-indexed frame table for DRAM
     *                   frames (default). When false every frame goes
     *                   through the sparse map — the slow reference
     *                   path the equivalence tests compare against.
     */
    explicit PhysMem(bool fastFrames = true);

    // read()/write() and the helpers under them are defined inline
    // below the class: they sit on the per-instruction load/store path
    // and the call overhead was measurable in profiles.

    /** Read @p size bytes (1..8) as a little-endian integer. */
    uint64_t read(Addr pa, unsigned size) const;

    /** Write the low @p size bytes of @p value, little-endian. */
    void write(Addr pa, uint64_t value, unsigned size);

    /** Convenience 64-bit accessors. */
    uint64_t read64(Addr pa) const { return read(pa, 8); }
    void write64(Addr pa, uint64_t value) { write(pa, value, 8); }

    /** Read a 32-bit instruction word. */
    uint32_t read32(Addr pa) const { return uint32_t(read(pa, 4)); }

    /**
     * Write generation of the page containing @p pa: 0 for a page
     * never written, else the never-reused label of the last write
     * (or restore relabel) that touched it. Consumers (the decode
     * cache) snapshot it and treat any change as an invalidation.
     */
    uint64_t pageGen(Addr pa) const
    {
        const Frame *f = frameIfPresent(isa::pageNumber(pa));
        return f ? f->gen : 0;
    }

    /** Number of pages currently backed. */
    size_t pageCount() const { return backedPages_; }

    /** True when the direct-indexed frame table is in use. */
    bool fastFrames() const { return fast_; }

    /**
     * Full image of every backed page, keyed by PPN, each tagged with
     * a write-generation label. The label is the copy-on-write dirty
     * check on restore: a page whose live generation still equals the
     * stored one has not been written since the snapshot (labels come
     * from a never-rewound counter), so its bytes need no copy. A
     * dirty page gets the captured bytes AND the captured label back
     * — the label has only ever described exactly these bytes, so
     * decode/superblock cache entries recorded under it revalidate
     * instead of churning through a rebuild after every restore.
     */
    struct Snapshot
    {
        struct Page
        {
            uint64_t gen = 0;
            std::unique_ptr<uint8_t[]> data; //!< PageSize bytes
        };
        std::unordered_map<uint64_t, Page> pages;
    };

    /** Page copy/free work a restore actually performed. */
    struct RestoreStats
    {
        size_t pagesCopied = 0; //!< dirty pages whose bytes were rewound
        size_t pagesFreed = 0;  //!< pages backed after the snapshot, dropped
    };

    /** Capture every backed page (full copy; restores are the COW side). */
    Snapshot takeSnapshot() const;

    /**
     * Visit every backed page in place as fn(ppn, bytes, gen) — no
     * copy, unspecified order. The integrity fingerprint digests
     * pages through this instead of paying takeSnapshot()'s full
     * image. The pointers are valid only until the next write or
     * restore.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const Window *w : {&user_, &kernel_}) {
            for (size_t c = 0; c < w->chunks.size(); ++c) {
                const auto &chunk = w->chunks[c];
                if (!chunk)
                    continue;
                for (uint64_t i = 0; i < FramesPerChunk; ++i) {
                    const Frame &f = chunk->frames[i];
                    if (f.data)
                        fn(w->base + c * FramesPerChunk + i,
                           f.data.get(), f.gen);
                }
            }
        }
        for (const auto &[ppn, f] : sparse_)
            if (f.data)
                fn(ppn, f.data.get(), f.gen);
    }

    /**
     * Rewind to @p snap bit-identically: copy back only pages dirtied
     * since the capture, free pages that did not exist then, and
     * re-back captured pages that have since been freed.
     */
    RestoreStats restore(const Snapshot &snap);

  private:
    /** One backed page frame: data plus its write generation. */
    struct Frame
    {
        std::unique_ptr<uint8_t[]> data; //!< PageSize bytes, zeroed
        uint64_t gen = 0;
    };

    // Frame-table geometry. The windows are a fast-path optimization
    // only — frames outside them fall back to the sparse map, so the
    // bounds just need to cover the hot linear-mapped ranges
    // (kernel/layout.hh): user code/data/arenas/JIT below 32 GB, and
    // the kernel image/trampolines/data in the first GB above
    // VA 0xFFFF'8000'0000'0000 (frame 0x2'0000'0000).
    static constexpr uint64_t FramesPerChunk = 1024;
    static constexpr uint64_t UserWindowBase = 0;
    static constexpr uint64_t UserWindowFrames =
        (0x8'0000'0000ull >> isa::PageShift); // 32 GB
    static constexpr uint64_t KernelWindowBase =
        (0x8000'0000'0000ull >> isa::PageShift);
    static constexpr uint64_t KernelWindowFrames =
        (0x1'0000'0000ull >> isa::PageShift); // 1 GB

    /** A lazily allocated group of frames (bounds chunk-vector size). */
    struct Chunk
    {
        Frame frames[FramesPerChunk];
    };

    /** One direct-indexed window of the frame table. */
    struct Window
    {
        uint64_t base = 0;   //!< first PPN covered
        uint64_t frames = 0; //!< PPNs covered
        std::vector<std::unique_ptr<Chunk>> chunks;
    };

    /** Window covering @p ppn, or nullptr. */
    Window *windowFor(uint64_t ppn);
    const Window *windowFor(uint64_t ppn) const;

    /** Frame for @p ppn if backed, else nullptr. Never allocates. */
    const Frame *frameIfPresent(uint64_t ppn) const;

    /** Frame for @p ppn, allocated (zeroed) on demand. */
    Frame &frameFor(uint64_t ppn);

    /** Single-page read/write helpers (no page-boundary crossing). */
    uint64_t readWithin(Addr pa, unsigned size) const;
    void writeWithin(Addr pa, uint64_t value, unsigned size);

    bool fast_;
    Window user_;
    Window kernel_;
    std::unordered_map<uint64_t, Frame> sparse_;
    size_t backedPages_ = 0;

    /** Source of write-generation labels; never rewound, not part of
     *  any snapshot (labels must stay unique across restores). */
    uint64_t genCounter_ = 0;
};

inline const PhysMem::Window *
PhysMem::windowFor(uint64_t ppn) const
{
    if (!fast_)
        return nullptr;
    if (ppn - user_.base < user_.frames)
        return &user_;
    if (ppn - kernel_.base < kernel_.frames)
        return &kernel_;
    return nullptr;
}

inline PhysMem::Window *
PhysMem::windowFor(uint64_t ppn)
{
    return const_cast<Window *>(
        const_cast<const PhysMem *>(this)->windowFor(ppn));
}

inline const PhysMem::Frame *
PhysMem::frameIfPresent(uint64_t ppn) const
{
    if (const Window *w = windowFor(ppn)) {
        const auto &chunk = w->chunks[(ppn - w->base) / FramesPerChunk];
        if (!chunk)
            return nullptr;
        const Frame &f = chunk->frames[(ppn - w->base) % FramesPerChunk];
        return f.data ? &f : nullptr;
    }
    auto it = sparse_.find(ppn);
    return it == sparse_.end() || !it->second.data ? nullptr : &it->second;
}

inline uint64_t
PhysMem::readWithin(Addr pa, unsigned size) const
{
    const Frame *f = frameIfPresent(isa::pageNumber(pa));
    if (!f)
        return 0;
    const uint8_t *src = f->data.get() + isa::pageOffset(pa);
    uint64_t value = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // The guest value is the little-endian assembly of src[0..size);
    // on a little-endian host that is a plain byte copy.
    std::memcpy(&value, src, size);
#else
    for (unsigned i = 0; i < size; ++i)
        value |= uint64_t(src[i]) << (8 * i);
#endif
    return value;
}

inline void
PhysMem::writeWithin(Addr pa, uint64_t value, unsigned size)
{
    const uint64_t ppn = isa::pageNumber(pa);
    // Stores overwhelmingly touch already-backed pages; only the
    // first touch takes the allocating frameFor() call.
    Frame *f = const_cast<Frame *>(frameIfPresent(ppn));
    if (!f)
        f = &frameFor(ppn);
    f->gen = ++genCounter_;
    uint8_t *dst = f->data.get() + isa::pageOffset(pa);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(dst, &value, size);
#else
    for (unsigned i = 0; i < size; ++i)
        dst[i] = uint8_t(value >> (8 * i));
#endif
}

inline uint64_t
PhysMem::read(Addr pa, unsigned size) const
{
    PACMAN_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    const unsigned room = unsigned(isa::PageSize - isa::pageOffset(pa));
    if (size <= room) [[likely]]
        return readWithin(pa, size);
    // Page-straddling access: split at the boundary (at most once,
    // since size <= 8 << PageSize).
    const uint64_t lo = readWithin(pa, room);
    const uint64_t hi = readWithin(pa + room, size - room);
    return lo | (hi << (8 * room));
}

inline void
PhysMem::write(Addr pa, uint64_t value, unsigned size)
{
    PACMAN_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    const unsigned room = unsigned(isa::PageSize - isa::pageOffset(pa));
    if (size <= room) [[likely]] {
        writeWithin(pa, value, size);
        return;
    }
    writeWithin(pa, value, room);
    writeWithin(pa + room, value >> (8 * room), size - room);
}

} // namespace pacman::mem

#endif // PACMAN_MEM_PHYSMEM_HH

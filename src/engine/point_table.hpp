/**
 * @file
 * PointTable: an exact-bits hash table from short runs of 64-bit words
 * (a parameter point's bit encoding) to a small value. EvalEngine keeps
 * one PointTable<double> per (graph, resolved spec) as its point memo,
 * and uses a drain-local PointTable<double *> to spot a point that
 * appears twice in one drain.
 *
 * Layout: keys of one length share a shelf. A shelf stores its keys
 * back to back in an arena that grows in blocks (8 records, doubling
 * up to 4096, then fixed), so a key never moves once stored and a
 * small table stays small; blocks are not zero-filled, so their pages
 * become resident only as records fill them. An open-addressing index
 * of 16-byte slots (32-bit hash, 32-bit record id, value) with linear
 * probing finds them. A p = 2 point (5 words) costs 40 arena bytes
 * plus 21-43 slot bytes at the 0.75 load bound.
 *
 * A hash never identifies a key by itself: every hash match compares
 * the full key, and keys of different length live on different
 * shelves, so find() only ever returns the value stored under exactly
 * those bits (+0.0 and -0.0 are different keys).
 */

#ifndef REDQAOA_ENGINE_POINT_TABLE_HPP
#define REDQAOA_ENGINE_POINT_TABLE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace redqaoa {

template <class Value>
class PointTable
{
  public:
    /** The hash find() and insert() expect for @p key. */
    static std::uint32_t
    hash(std::span<const std::uint64_t> key)
    {
        std::uint64_t h = key.size();
        for (std::uint64_t w : key)
            h = mix(h ^ w);
        return static_cast<std::uint32_t>(h);
    }

    /** The value stored under @p key, or null. */
    const Value *
    find(std::span<const std::uint64_t> key, std::uint32_t h) const
    {
        const std::size_t at = shelfIndex(key.size());
        if (at == shelves_.size())
            return nullptr;
        const Shelf &shelf = shelves_[at];
        const std::size_t mask = shelf.slots.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const Slot &s = shelf.slots[i];
            if (s.record == kEmpty)
                return nullptr;
            if (s.hash == h && shelf.matches(s.record, key))
                return &s.value;
        }
    }

    /**
     * Store @p value under @p key unless the key is present (a stored
     * value is never replaced). Returns true when inserted.
     */
    bool
    insert(std::span<const std::uint64_t> key, std::uint32_t h,
           const Value &value)
    {
        std::size_t at = shelfIndex(key.size());
        if (at == shelves_.size()) {
            shelves_.emplace_back();
            shelves_.back().words = key.size();
        }
        Shelf &shelf = shelves_[at];
        if (4 * (shelf.count + 1) > 3 * shelf.slots.size())
            grow(shelf);
        const std::size_t mask = shelf.slots.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            Slot &s = shelf.slots[i];
            if (s.record == kEmpty) {
                s = {h, shelf.append(key, bytes_), value};
                ++shelf.count;
                ++size_;
                return true;
            }
            if (s.hash == h && shelf.matches(s.record, key))
                return false;
        }
    }

    /** Keys stored. */
    std::size_t size() const { return size_; }

    /** Bytes held by the arenas and slot arrays. */
    std::size_t bytes() const { return bytes_; }

    void
    clear()
    {
        shelves_.clear();
        size_ = 0;
        bytes_ = 0;
    }

  private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
    /** Record ids are (block << kBlockBits) | index within the block. */
    static constexpr unsigned kBlockBits = 12;
    static constexpr std::size_t kMaxBlockRecords = std::size_t{1}
                                                    << kBlockBits;
    static constexpr std::size_t kFirstBlockRecords = 8;
    /** One short of 2^20 blocks: the last id would read as kEmpty. */
    static constexpr std::size_t kMaxBlocks =
        (std::size_t{1} << (32 - kBlockBits)) - 1;
    static constexpr std::size_t kFirstSlots = 16;

    struct Slot
    {
        std::uint32_t hash;
        std::uint32_t record;
        Value value;
    };

    struct Shelf
    {
        std::size_t words = 0; //!< Key length of every record here.
        std::size_t count = 0; //!< Records stored.
        std::vector<std::unique_ptr<std::uint64_t[]>> blocks;
        std::size_t lastUsed = 0; //!< Records in the last block.
        std::vector<Slot> slots;  //!< Power-of-two open-addressing index.

        static std::size_t
        blockRecords(std::size_t block)
        {
            return std::min(kMaxBlockRecords,
                            kFirstBlockRecords
                                << std::min<std::size_t>(block, kBlockBits));
        }

        const std::uint64_t *
        record(std::uint32_t id) const
        {
            return blocks[id >> kBlockBits].get() +
                   (id & (kMaxBlockRecords - 1)) * words;
        }

        bool
        matches(std::uint32_t id, std::span<const std::uint64_t> key) const
        {
            return std::equal(key.begin(), key.end(), record(id));
        }

        /** Copy @p key into the arena; returns its record id. */
        std::uint32_t
        append(std::span<const std::uint64_t> key, std::size_t &bytes)
        {
            if (blocks.empty() ||
                lastUsed == blockRecords(blocks.size() - 1)) {
                if (blocks.size() == kMaxBlocks)
                    throw std::length_error("PointTable: shelf is full");
                const std::size_t records = blockRecords(blocks.size());
                blocks.push_back(std::make_unique_for_overwrite<
                                 std::uint64_t[]>(records * words));
                bytes += records * words * sizeof(std::uint64_t);
                lastUsed = 0;
            }
            const std::size_t block = blocks.size() - 1;
            std::copy(key.begin(), key.end(),
                      blocks[block].get() + lastUsed * words);
            return static_cast<std::uint32_t>((block << kBlockBits) |
                                              lastUsed++);
        }
    };

    /** splitmix64's finalizer: every input bit reaches the low bits. */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    /** The shelf holding keys of @p words words (size() if none). */
    std::size_t
    shelfIndex(std::size_t words) const
    {
        std::size_t at = 0;
        while (at < shelves_.size() && shelves_[at].words != words)
            ++at;
        return at;
    }

    static void
    place(std::vector<Slot> &slots, const Slot &slot)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = slot.hash & mask;
        while (slots[i].record != kEmpty)
            i = (i + 1) & mask;
        slots[i] = slot;
    }

    /** Double the index (the arena never moves). */
    void
    grow(Shelf &shelf)
    {
        const std::size_t old = shelf.slots.size();
        std::vector<Slot> slots(std::max(kFirstSlots, 2 * old),
                                Slot{0, kEmpty, Value{}});
        for (const Slot &s : shelf.slots)
            if (s.record != kEmpty)
                place(slots, s);
        shelf.slots.swap(slots);
        bytes_ += (shelf.slots.size() - old) * sizeof(Slot);
    }

    std::vector<Shelf> shelves_;
    std::size_t size_ = 0;
    std::size_t bytes_ = 0;
};

/** The engine's point memo: exact point bits -> <H_c>. */
using PointMemo = PointTable<double>;

} // namespace redqaoa

#endif // REDQAOA_ENGINE_POINT_TABLE_HPP

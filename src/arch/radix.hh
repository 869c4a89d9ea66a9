/**
 * @file
 * A page-table-shaped radix tree over virtual addresses: the layout of
 * the Domain Translation Table (DTT, payload: current key + per-thread
 * permissions) and the Domain Range Table (DRT, payload: the domain's
 * Permission Table row) the paper introduces. No scheme keeps one: a
 * DTT or DRT walk takes the domain the page walk found and is charged
 * as a constant (DESIGN.md §8). The tree models what the walker reads.
 *
 * The tree has four levels matching x86-64 paging (PML4/PDPT/PD/PT:
 * 512 GB / 1 GB / 2 MB / 4 KB slots). A slot is either empty, a
 * *directory entry* (next-level bit = 1) pointing to a child node, or
 * a *PMO root entry* (next-level bit = 0) naming the domain id and its
 * payload. A PMO whose VA reservation spans several aligned slots
 * installs one root entry per slot, all naming one payload.
 */

#ifndef PMODV_ARCH_RADIX_HH
#define PMODV_ARCH_RADIX_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace pmodv::arch
{

/** Number of slots per radix node (9 VA bits). */
inline constexpr unsigned kRadixFanout = 512;

/** Number of levels (PML4 -> PT). */
inline constexpr unsigned kRadixLevels = 4;

/** log2 of the byte span of one slot at each level (0 = PML4). */
constexpr unsigned
radixSlotShift(unsigned level)
{
    // level 0: 39 (512 GB), 1: 30 (1 GB), 2: 21 (2 MB), 3: 12 (4 KB).
    return 39 - 9 * level;
}

/** Slot index of @p va at @p level. */
constexpr unsigned
radixSlotIndex(Addr va, unsigned level)
{
    return static_cast<unsigned>((va >> radixSlotShift(level)) & 0x1ff);
}

/**
 * The VA-indexed radix tree. @tparam Payload per-domain data named by
 * PMO root entries (may be empty for the DRT); the tree stores only a
 * pointer, so the caller keeps each payload at a stable address for
 * as long as its root entries are installed.
 *
 * Host layout: the PML4, PDPT and PD levels are nodes
 * of 512 8-byte slots, pooled with a free list. A slot holds a valid
 * bit, a next-level bit and an index above them: the child of a
 * directory entry, or the domain whose root record {range, payload} a
 * PMO root entry names. A PT node is held as the list of domains whose
 * 4 KB root entries it contains, ordered by base: one insert() fills
 * one run of a PT node, its range clipped to the node's 2 MB span, so
 * the root records name every slot of the node. A domain is in the
 * tree through at most one insert() at a time. nodeCount(),
 * rootEntryCount() and walk() describe the modelled page-table tree.
 */
template <typename Payload>
class VaRadixTree
{
  public:
    /** Result of walking the tree for a VA. */
    struct WalkResult
    {
        bool found = false;
        DomainId domain = kNullDomain;
        Payload *payload = nullptr;
        /** Levels visited, including the one holding the root entry. */
        unsigned depth = 0;
    };

    VaRadixTree() { take(nodes_, freeNodes_); }

    /**
     * Install root entries covering [base, base+size) for @p domain,
     * which must not be in the tree already. The range must be 4 KB
     * aligned and lie below 2^48; it is greedily decomposed into the
     * largest aligned slots. All entries name @p payload.
     */
    void
    insert(Addr base, Addr size, DomainId domain, Payload *payload)
    {
        panic_if(domain == kNullDomain,
                 "cannot insert the NULL domain into a radix tree");
        panic_if(!isAligned(base, 4096) || !isAligned(size, 4096),
                 "radix insert range must be 4KB aligned");
        panic_if(size == 0, "radix insert of empty range");
        // The walk decodes VA bits 12-47 only.
        constexpr Addr kVaLimit = Addr{1} << 48;
        panic_if(size > kVaLimit || base > kVaLimit - size,
                 "radix insert range leaves the 48-bit VA space");
        if (domain >= records_.size())
            records_.resize(std::size_t{domain} + 1);
        panic_if(records_[domain].size != 0,
                 "domain %u is already in the radix tree", domain);
        records_[domain] = {base, size, payload};
        fill(0, 0, base, base + size, domain);
    }

    /** Walk the tree for @p va (the hardware walker's algorithm). */
    WalkResult
    walk(Addr va) const
    {
        WalkResult res;
        const Node *node = &nodes_[0];
        DomainId domain = kNullDomain;
        for (unsigned level = 0; domain == kNullDomain; ++level) {
            ++res.depth;
            const Slot slot = node->slots[radixSlotIndex(va, level)];
            if (!(slot & kValid))
                return res;
            if (!(slot & kNextLevel)) {
                domain = static_cast<DomainId>(slot >> 2);
            } else if (level + 1 == kLeafLevel) {
                ++res.depth;
                domain = leafDomain(leaves_[slot >> 2], va);
                if (domain == kNullDomain)
                    return res;
            } else {
                node = &nodes_[slot >> 2];
            }
        }
        res.found = true;
        res.domain = domain;
        res.payload = records_[domain].payload;
        return res;
    }

    /**
     * Remove every root entry of @p domain; returns the number of
     * entries removed. Only the domain's recorded range is walked;
     * nodes it leaves empty are pruned bottom-up.
     */
    unsigned
    remove(DomainId domain)
    {
        if (domain >= records_.size() || records_[domain].size == 0)
            return 0;
        Record &rec = records_[domain];
        const unsigned removed =
            clear(0, 0, rec.base, rec.base + rec.size, domain);
        rec = Record{};
        roots_ -= removed;
        return removed;
    }

    /** Number of allocated nodes (for the memory-usage model). */
    std::uint64_t
    nodeCount() const
    {
        return nodes_.size() - freeNodes_.size() + leaves_.size() -
               freeLeaves_.size();
    }

    /** Total root entries currently installed. */
    std::uint64_t rootEntryCount() const { return roots_; }

  private:
    /** Bit 0 valid, bit 1 next level, bits 2.. child index or domain. */
    using Slot = std::uint64_t;
    static constexpr Slot kValid = 1;
    static constexpr Slot kNextLevel = 2;

    /** The PT level, whose nodes are leaves. */
    static constexpr unsigned kLeafLevel = kRadixLevels - 1;

    struct Node
    {
        std::array<Slot, kRadixFanout> slots{};
    };

    /** A PT node: the domains with root entries in it, by base. */
    using Leaf = std::vector<DomainId>;

    /** A domain's insert(): its range (size 0: none) and payload. */
    struct Record
    {
        Addr base = 0;
        Addr size = 0;
        Payload *payload = nullptr;
    };

    /**
     * Install @p domain's root entries over [va, end) below node @p n
     * at @p level, in one pass over the node: a run of slots the range
     * covers whole is filled in a loop, and only a partially covered
     * slot (or a PML4 slot, which never holds a root entry) descends.
     */
    void
    fill(std::uint32_t n, unsigned level, Addr va, Addr end,
         DomainId domain)
    {
        const unsigned shift = radixSlotShift(level);
        const Addr span = Addr{1} << shift;
        while (va < end) {
            const unsigned idx = radixSlotIndex(va, level);
            if (level > 0 && isAligned(va, span) && end - va >= span) {
                const auto run = static_cast<unsigned>((end - va) >> shift);
                Slot *slots = &nodes_[n].slots[idx];
                Slot taken = 0;
                for (unsigned i = 0; i < run; ++i)
                    taken |= slots[i];
                panic_if(taken & kValid,
                         "radix insert over an occupied slot");
                std::fill(slots, slots + run, (Slot{domain} << 2) | kValid);
                roots_ += run;
                va += Addr{run} << shift;
                continue;
            }
            const bool to_leaf = level + 1 == kLeafLevel;
            Slot slot = nodes_[n].slots[idx];
            if (!(slot & kValid)) {
                const std::uint32_t child =
                    to_leaf ? take(leaves_, freeLeaves_)
                            : take(nodes_, freeNodes_);
                slot = (Slot{child} << 2) | kNextLevel | kValid;
                nodes_[n].slots[idx] = slot;
            }
            panic_if(!(slot & kNextLevel),
                     "radix insert collides with an existing root entry");
            const Addr next = std::min((va | (span - 1)) + 1, end);
            const auto child = static_cast<std::uint32_t>(slot >> 2);
            if (to_leaf)
                fillLeaf(leaves_[child], va, next, domain);
            else
                fill(child, level + 1, va, next, domain);
            va = next;
        }
    }

    /** Add @p domain's run [va, end) of 4 KB root entries to @p leaf. */
    void
    fillLeaf(Leaf &leaf, Addr va, Addr end, DomainId domain)
    {
        for (const DomainId d : leaf) {
            const Record &rec = records_[d];
            panic_if(rec.base < end && va < rec.base + rec.size,
                     "radix insert over an occupied slot");
        }
        leaf.insert(std::upper_bound(leaf.begin(), leaf.end(),
                                     records_[domain].base, byBase()),
                    domain);
        roots_ += (end - va) >> radixSlotShift(kLeafLevel);
    }

    /** The domain of @p leaf whose root entry holds @p va, if any. */
    DomainId
    leafDomain(const Leaf &leaf, Addr va) const
    {
        // Runs are disjoint and ordered by base: only the last domain
        // based at or below va can hold it.
        const auto it =
            std::upper_bound(leaf.begin(), leaf.end(), va, byBase());
        if (it == leaf.begin())
            return kNullDomain;
        const Record &rec = records_[it[-1]];
        return va - rec.base < rec.size ? it[-1] : kNullDomain;
    }

    /** Orders an address against a domain's recorded base. */
    auto
    byBase() const
    {
        return [this](Addr va, DomainId d) { return va < records_[d].base; };
    }

    /** Undo fill() of [va, end), pruning the nodes it empties. */
    unsigned
    clear(std::uint32_t n, unsigned level, Addr va, Addr end,
          DomainId domain)
    {
        const Addr span = Addr{1} << radixSlotShift(level);
        unsigned removed = 0;
        while (va < end) {
            const Addr next = std::min((va | (span - 1)) + 1, end);
            Slot &slot = nodes_[n].slots[radixSlotIndex(va, level)];
            if (level > 0 && next - va == span) {
                slot = 0;
                ++removed;
            } else if (slot & kNextLevel) {
                const auto child = static_cast<std::uint32_t>(slot >> 2);
                if (level + 1 == kLeafLevel) {
                    Leaf &leaf = leaves_[child];
                    leaf.erase(std::find(leaf.begin(), leaf.end(), domain));
                    removed += static_cast<unsigned>(
                        (next - va) >> radixSlotShift(kLeafLevel));
                    if (leaf.empty()) {
                        freeLeaves_.push_back(child);
                        slot = 0;
                    }
                } else {
                    removed += clear(child, level + 1, va, next, domain);
                    const auto &slots = nodes_[child].slots;
                    if (std::all_of(slots.begin(), slots.end(),
                                    [](Slot s) { return s == 0; })) {
                        freeNodes_.push_back(child);
                        slot = 0;
                    }
                }
            }
            va = next;
        }
        return removed;
    }

    /**
     * A free index of @p pool: recycled from @p free or appended. A
     * recycled node is all zero and a recycled leaf empty, as new.
     */
    template <typename T>
    static std::uint32_t
    take(std::vector<T> &pool, std::vector<std::uint32_t> &free)
    {
        if (free.empty()) {
            pool.emplace_back();
            return static_cast<std::uint32_t>(pool.size() - 1);
        }
        const std::uint32_t i = free.back();
        free.pop_back();
        return i;
    }

    /** PML4/PDPT/PD node pool; [0] is the PML4 root. */
    std::vector<Node> nodes_;
    std::vector<std::uint32_t> freeNodes_;
    /** PT node pool. */
    std::vector<Leaf> leaves_;
    std::vector<std::uint32_t> freeLeaves_;
    /** Root records, indexed by DomainId. */
    std::vector<Record> records_;
    std::uint64_t roots_ = 0;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_RADIX_HH

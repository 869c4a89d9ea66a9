/**
 * @file
 * The per-domain registry every key/domain scheme keeps its tenants
 * in: one DomainRow per attached domain, with the per-thread
 * permission row each of them carries.
 */

#ifndef PMODV_ARCH_DOMAIN_TABLE_HH
#define PMODV_ARCH_DOMAIN_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pmodv::arch
{

/**
 * One domain's permission for each thread, indexed by ThreadId (dense
 * small integers in every trace). A thread past the end holds None.
 * The first kInline threads are stored in the row itself; a wider
 * thread id moves the whole row to a heap array of power-of-two size.
 */
class PermRow
{
  public:
    /** Threads whose permissions are held without a heap array. */
    static constexpr std::size_t kInline = 8;

    Perm
    get(ThreadId tid) const
    {
        return tid < size_ ? data()[tid] : Perm::None;
    }

    void
    set(ThreadId tid, Perm perm)
    {
        if (tid >= size_)
            grow(std::size_t{tid} + 1);
        data()[tid] = perm;
    }

    /** Every stored permission, thread 0 first. */
    std::span<const Perm> threads() const { return {data(), size_}; }

  private:
    bool spilled() const { return size_ > kInline; }
    const Perm *data() const { return spilled() ? wide_.get() : row_.data(); }
    Perm *data() { return spilled() ? wide_.get() : row_.data(); }

    /** Store @p size threads; the new ones hold None. */
    void
    grow(std::size_t size)
    {
        if (size > kInline && (!spilled() || size > std::bit_ceil(size_))) {
            auto wide = std::make_unique<Perm[]>(std::bit_ceil(size));
            std::copy_n(data(), size_, wide.get());
            wide_ = std::move(wide);
        }
        // The new slots of either store were never written (detach
        // replaces the whole row), so they already hold None.
        size_ = size;
    }

    std::array<Perm, kInline> row_{};
    std::size_t size_ = 0;
    /** All size_ permissions once size_ > kInline. */
    std::unique_ptr<Perm[]> wide_;
};

/**
 * One attached domain as every key/domain scheme records it: its id,
 * the key it holds (kInvalidKey when none; stock MPK's kNullKey when
 * domainless; domain_virt has no keys), its range for shootdowns and
 * detach, and each thread's permission (the DTT payload of mpk_virt,
 * the Permission Table row of domain_virt).
 */
struct DomainRow
{
    DomainId domain = kNullDomain; ///< kNullDomain: not attached.
    ProtKey key = kInvalidKey;
    Addr base = 0;
    Addr size = 0;
    PermRow perms;
};

static_assert(sizeof(DomainRow) == 48, "a registry row is 48 bytes");

/**
 * The per-domain registry of every key/domain scheme: rows indexed by
 * DomainId (dense small integers below kMaxDomains, as in
 * DomainProfile), stored contiguously. Growth moves rows, so a row
 * pointer is valid only until the next claim(). A row whose `domain`
 * is kNullDomain is not attached; detach resets it in place.
 */
class DomainTable
{
  public:
    /** @p d's row, or nullptr when @p d is not attached. */
    DomainRow *find(DomainId d) { return has(d) ? &rows_[d] : nullptr; }

    const DomainRow *
    find(DomainId d) const
    {
        return has(d) ? &rows_[d] : nullptr;
    }

    /** Attach @p d at [base, base+size): its row, created on first use. */
    DomainRow &
    claim(DomainId d, Addr base, Addr size)
    {
        panic_if(d == kNullDomain || d >= kMaxDomains,
                 "domain %u is outside the registry", d);
        panic_if(has(d), "domain %u attached twice", d);
        if (d >= rows_.size())
            rows_.resize(std::size_t{d} + 1);
        DomainRow &row = rows_[d];
        row.domain = d;
        row.base = base;
        row.size = size;
        return row;
    }

  private:
    bool
    has(DomainId d) const
    {
        return d < rows_.size() && rows_[d].domain != kNullDomain;
    }

    std::vector<DomainRow> rows_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_DOMAIN_TABLE_HH

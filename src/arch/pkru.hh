/**
 * @file
 * The MPK register-level substrate: per-thread PKRU register state
 * (2 bits per protection key: access-disable and write-disable, as in
 * the Intel SDM) and the protection-key table every key-based scheme
 * keeps.
 */

#ifndef PMODV_ARCH_PKRU_HH
#define PMODV_ARCH_PKRU_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pmodv::arch
{

/**
 * One thread's PKRU register. Bit 2k is AD (access disable) and bit
 * 2k+1 is WD (write disable) for key k, exactly the architectural
 * layout, so raw() round-trips with WRPKRU/RDPKRU semantics.
 */
class Pkru
{
  public:
    /** Reset state: key 0 fully open, all other keys inaccessible. */
    Pkru() { reset(); }

    /** Restore the reset state. */
    void reset();

    /** Read the architectural 32-bit register value (RDPKRU). */
    std::uint32_t raw() const { return value_; }

    /** Write the architectural 32-bit register value (WRPKRU). */
    void setRaw(std::uint32_t v) { value_ = v; }

    /** Permission the register grants for @p key. */
    Perm
    permFor(ProtKey key) const
    {
        panic_if(key >= kNumProtKeys, "PKRU key %u out of range", key);
        const bool ad = value_ & (1u << (2 * key));
        const bool wd = value_ & (1u << (2 * key + 1));
        if (ad)
            return Perm::None;
        return wd ? Perm::Read : Perm::ReadWrite;
    }

    /** Set the permission bits of one key (pkey_set). */
    void setPerm(ProtKey key, Perm perm);

    bool operator==(const Pkru &) const = default;

  private:
    std::uint32_t value_ = 0;
};

/**
 * The 16-entry protection-key table of the key-based schemes: which
 * domain holds each key (pkey_alloc / pkey_free) and, for the schemes
 * that virtualize keys, when it was last touched. A key is free
 * exactly when its holder is kNullDomain. Key 0 is reserved as the
 * default/domainless key and never handed out.
 */
class KeyTable
{
  public:
    KeyTable() { holder_.fill(kNullDomain); }

    /**
     * Give the lowest free key to @p domain; returns kInvalidKey when
     * all 15 allocatable keys are held (the ENOSPC case the paper
     * highlights).
     */
    ProtKey claim(DomainId domain);

    /** Free @p key; false for key 0, an out-of-range or a free key. */
    bool release(ProtKey key);

    /** The domain holding @p key (< kNumProtKeys; kNullDomain: free). */
    DomainId holder(ProtKey key) const { return holder_[key]; }

    /** Mark @p key most recently used. */
    void touch(ProtKey key) { stamp_[key] = ++clock_; }

    /** The least recently touched held key (panics if none is held). */
    ProtKey victim() const;

  private:
    std::array<DomainId, kNumProtKeys> holder_;
    std::array<std::uint64_t, kNumProtKeys> stamp_{};
    std::uint64_t clock_ = 0;
};

/**
 * Per-thread PKRU file: the OS view that saves/restores PKRU across
 * context switches. Lazily creates a reset-state register per thread.
 *
 * Thread ids are dense small integers in every trace, so the file is
 * a flat vector indexed by ThreadId with on-demand growth — the
 * per-access lookup in the MPK-family checkAccess paths is an array
 * index, not a hash probe. An untouched slot holds the reset state,
 * which is indistinguishable from a never-created register: resetKey
 * only ever targets keys 1..15, whose reset-state bits are already
 * AD|WD (exactly what setPerm(key, None) writes).
 */
class PkruFile
{
  public:
    Pkru &
    forThread(ThreadId tid)
    {
        if (tid >= regs_.size()) [[unlikely]]
            regs_.resize(std::size_t{tid} + 1);
        return regs_[tid];
    }

    const Pkru &
    forThread(ThreadId tid) const
    {
        static const Pkru reset_state;
        return tid < regs_.size() ? regs_[tid] : reset_state;
    }

    /**
     * Clear @p key's permission bits in every thread's register. The
     * kernel does this when a key changes hands (pkey_free +
     * pkey_alloc reuse, or a virtualization-layer remap): without it,
     * stale PKRU bits from the key's previous owner would grant
     * threads unintended access to the new holder.
     */
    void
    resetKey(ProtKey key)
    {
        for (Pkru &pkru : regs_)
            pkru.setPerm(key, Perm::None);
    }

    /**
     * Hand @p key to a new holder on every thread at once: resetKey(),
     * then load each thread's permission for the holder from @p perms
     * (indexed by ThreadId).
     */
    void
    loadKey(ProtKey key, std::span<const Perm> perms)
    {
        resetKey(key);
        for (ThreadId t = 0; t < perms.size(); ++t)
            forThread(t).setPerm(key, perms[t]);
    }

  private:
    std::vector<Pkru> regs_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_PKRU_HH

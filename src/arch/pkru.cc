#include "arch/pkru.hh"

#include <bit>

#include "common/logging.hh"

namespace pmodv::arch
{

void
Pkru::reset()
{
    // Key 0: AD=0, WD=0 (open). Keys 1..15: AD=1, WD=1 (inaccessible).
    value_ = 0xfffffffcu;
}

void
Pkru::setPerm(ProtKey key, Perm perm)
{
    panic_if(key >= kNumProtKeys, "PKRU key %u out of range", key);
    bool ad = false, wd = false;
    switch (perm) {
      case Perm::None:
        ad = true;
        wd = true;
        break;
      case Perm::Read:
        wd = true;
        break;
      case Perm::Write:
        // MPK cannot express write-without-read; grant RW, the
        // strictest expressible superset containing W.
        break;
      case Perm::ReadWrite:
        break;
    }
    const std::uint32_t mask = 0x3u << (2 * key);
    std::uint32_t v = value_ & ~mask;
    if (ad)
        v |= 1u << (2 * key);
    if (wd)
        v |= 1u << (2 * key + 1);
    value_ = v;
}

ProtKey
KeyTable::claim(DomainId domain)
{
    // Compare every holder at once (no branch on where a free key
    // sits): bit k is set when key k is free.
    std::uint32_t free = 0;
    for (unsigned k = 1; k < kNumProtKeys; ++k)
        free |= std::uint32_t{holder_[k] == kNullDomain} << k;
    if (free == 0)
        return kInvalidKey;
    const auto key = static_cast<ProtKey>(std::countr_zero(free));
    holder_[key] = domain;
    return key;
}

bool
KeyTable::release(ProtKey key)
{
    if (key == kNullKey || key >= kNumProtKeys ||
        holder_[key] == kNullDomain)
        return false;
    holder_[key] = kNullDomain;
    return true;
}

ProtKey
KeyTable::victim() const
{
    // Fold all 15 keys with conditional moves (no branch on which keys
    // are held or where the oldest sits). A free key reads as stamp
    // 2^64 - 1, which no held key's stamp reaches (clock_ counts
    // touches), so it never wins; strict < keeps the lowest key on a
    // tie.
    ProtKey best = kInvalidKey;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (ProtKey k = 1; k < kNumProtKeys; ++k) {
        const std::uint64_t unheld = holder_[k] == kNullDomain;
        const std::uint64_t stamp = stamp_[k] | (0 - unheld);
        const bool older = stamp < oldest;
        best = older ? k : best;
        oldest = older ? stamp : oldest;
    }
    panic_if(best == kInvalidKey, "KeyTable::victim() with no key held");
    return best;
}

} // namespace pmodv::arch

#include "common/plru.hh"

#include <array>
#include <cstring>
#include <mutex>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pmodv
{

TreePlru::TreePlru(unsigned num_ways) : numWays_(num_ways)
{
    panic_if(num_ways == 0, "TreePlru needs at least one way");
    panic_if(num_ways > kMaxWays, "TreePlru supports at most %u ways",
             kMaxWays);
    treeWays_ = 1u << ceilLog2(num_ways);
}

const TreePlru::VictimLut &
TreePlru::sharedVictimLut(unsigned num_ways)
{
    // Slot 0 stays empty: it serves every way count with no table.
    static std::array<VictimLut, 17> luts;
    static std::array<std::once_flag, 17> built;
    const unsigned i = num_ways < luts.size() ? num_ways : 0;
    std::call_once(built[i], [i] {
        if (i > 0)
            luts[i] = makeVictimLut(i);
    });
    return luts[i];
}

void
TreePlru::touch(unsigned way)
{
    panic_if(way >= numWays_, "TreePlru::touch way %u out of range", way);
    if (treeWays_ == 1)
        return;
    // Walk from the root to the leaf, flipping each internal bit to
    // point away from the touched way.
    unsigned node = 0;
    unsigned lo = 0;
    unsigned span = treeWays_;
    while (span > 1) {
        const unsigned half = span / 2;
        const bool right = way >= lo + half;
        // bit false => victim path goes left; point away from 'way'.
        setBit(node, !right);
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo += half;
        span = half;
    }
}

std::vector<TreePlru::TouchOp>
TreePlru::makeTouchLut(unsigned num_ways)
{
    panic_if(num_ways == 0 || num_ways > kMaxWays,
             "TreePlru LUT for invalid way count %u", num_ways);
    const unsigned tree_ways = 1u << ceilLog2(num_ways);
    if (tree_ways > 64)
        return {}; // Path nodes would spill past bits_[0].
    std::vector<TouchOp> lut(num_ways);
    for (unsigned way = 0; way < num_ways; ++way) {
        unsigned node = 0;
        unsigned lo = 0;
        unsigned span = tree_ways;
        while (span > 1) {
            const unsigned half = span / 2;
            const bool right = way >= lo + half;
            lut[way].mask |= std::uint64_t{1} << node;
            if (!right)
                lut[way].value |= std::uint64_t{1} << node;
            node = 2 * node + (right ? 2 : 1);
            if (right)
                lo += half;
            span = half;
        }
    }
    return lut;
}

TreePlru::VictimLut
TreePlru::makeVictimLut(unsigned num_ways)
{
    panic_if(num_ways == 0 || num_ways > kMaxWays,
             "TreePlru victim LUT for invalid way count %u", num_ways);
    const unsigned tree_ways = 1u << ceilLog2(num_ways);
    VictimLut lut;
    if (tree_ways < 2 || tree_ways > 16)
        return lut; // Degenerate, or the table would get too big.
    // victim() only reads the root-to-leaf path nodes, all of which
    // have indices below tree_ways - 1; enumerate every bit pattern
    // and record where the walk lands.
    const unsigned bits = tree_ways - 1;
    lut.mask = (std::uint64_t{1} << bits) - 1;
    lut.table.resize(std::size_t{1} << bits);
    for (std::uint64_t pat = 0; pat <= lut.mask; ++pat) {
        unsigned node = 0;
        unsigned lo = 0;
        unsigned span = tree_ways;
        while (span > 1) {
            const unsigned half = span / 2;
            const bool right = (pat >> node) & 1;
            node = 2 * node + (right ? 2 : 1);
            if (right)
                lo += half;
            span = half;
        }
        lut.table[pat] = static_cast<std::uint8_t>(lo % num_ways);
    }
    return lut;
}

unsigned
TreePlru::victim() const
{
    if (treeWays_ == 1)
        return 0;
    unsigned node = 0;
    unsigned lo = 0;
    unsigned span = treeWays_;
    while (span > 1) {
        const unsigned half = span / 2;
        const bool right = bit(node);
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo += half;
        span = half;
    }
    // With non-power-of-two way counts the tree may land on a
    // nonexistent way; fold it back into range.
    return lo % numWays_;
}

void
TreePlru::reset()
{
    std::memset(bits_, 0, sizeof(bits_));
}

TrueLru::TrueLru(unsigned num_ways) : numWays_(num_ways)
{
    panic_if(num_ways == 0, "TrueLru needs at least one way");
    stamps_.assign(num_ways, 0);
}

void
TrueLru::touch(unsigned way)
{
    panic_if(way >= numWays_, "TrueLru::touch way %u out of range", way);
    stamps_[way] = ++clock_;
}

unsigned
TrueLru::victim() const
{
    unsigned best = 0;
    for (unsigned w = 1; w < numWays_; ++w) {
        if (stamps_[w] < stamps_[best])
            best = w;
    }
    return best;
}

void
TrueLru::reset()
{
    stamps_.assign(numWays_, 0);
    clock_ = 0;
}

} // namespace pmodv

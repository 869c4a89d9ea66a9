/**
 * @file
 * Unit tests for the per-domain registry rows: PermRow's inline and
 * spilled storage, and DomainTable's dense indexing of DomainRows.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "arch/domain_table.hh"

namespace pmodv::arch
{
namespace
{

/** True when @p row's permissions live inside the row object. */
bool
storedInline(const PermRow &row)
{
    const auto *p = reinterpret_cast<const char *>(row.threads().data());
    const auto *self = reinterpret_cast<const char *>(&row);
    return p >= self && p < self + sizeof(row);
}

std::vector<Perm>
stored(const PermRow &row)
{
    return {row.threads().begin(), row.threads().end()};
}

TEST(PermRow, EmptyRowStoresNothing)
{
    const PermRow row;
    EXPECT_TRUE(row.threads().empty());
    EXPECT_EQ(row.get(0), Perm::None);
}

TEST(PermRow, ThreadSevenStaysInline)
{
    PermRow row;
    row.set(7, Perm::ReadWrite);
    EXPECT_TRUE(storedInline(row));
    ASSERT_EQ(row.threads().size(), 8u);
    EXPECT_EQ(row.get(7), Perm::ReadWrite);
    EXPECT_EQ(row.get(8), Perm::None);
    for (ThreadId t = 0; t < 7; ++t)
        EXPECT_EQ(row.get(t), Perm::None) << t;
}

TEST(PermRow, ThreadEightSpillsAndKeepsTheInlineThreads)
{
    PermRow row;
    row.set(0, Perm::Read);
    row.set(7, Perm::ReadWrite);
    row.set(8, Perm::Read);
    EXPECT_FALSE(storedInline(row));
    const std::vector<Perm> expect{Perm::Read, Perm::None, Perm::None,
                                   Perm::None, Perm::None, Perm::None,
                                   Perm::None, Perm::ReadWrite, Perm::Read};
    EXPECT_EQ(stored(row), expect);
}

TEST(PermRow, ThreadsIsTheStoredPrefixInOrder)
{
    PermRow row;
    row.set(2, Perm::Read);
    row.set(0, Perm::ReadWrite);
    EXPECT_EQ(stored(row),
              (std::vector<Perm>{Perm::ReadWrite, Perm::None, Perm::Read}));

    // Wider ids grow the spilled array within its capacity (20 -> 30
    // of 32) and past it (-> 41): every earlier thread keeps its value
    // and every new one reads None.
    std::vector<Perm> expect(41, Perm::None);
    expect[0] = Perm::ReadWrite;
    expect[2] = Perm::Read;
    for (const ThreadId t : {19u, 29u, 40u}) {
        row.set(t, Perm::ReadWrite);
        expect[t] = Perm::ReadWrite;
        EXPECT_EQ(stored(row),
                  std::vector<Perm>(expect.begin(), expect.begin() + t + 1))
            << t;
    }
    row.set(19, Perm::None);
    EXPECT_EQ(row.get(19), Perm::None);
    EXPECT_EQ(row.threads().size(), 41u);
}

TEST(PermRow, GetPastTheEndIsNone)
{
    PermRow row;
    row.set(3, Perm::ReadWrite);
    EXPECT_EQ(row.get(4), Perm::None);
    EXPECT_EQ(row.get(8), Perm::None);
    EXPECT_EQ(row.get(UINT32_MAX), Perm::None);
    row.set(12, Perm::Read);
    EXPECT_EQ(row.get(13), Perm::None);
    EXPECT_EQ(row.get(1000), Perm::None);
    EXPECT_EQ(row.threads().size(), 13u);
}

TEST(DomainTable, SparseIdsAndGrowthKeepRows)
{
    DomainTable table;
    EXPECT_EQ(table.find(5), nullptr);
    // A spilled row, moved by the growth to 4096.
    table.claim(5, 0x5000, 0x1000).perms.set(9, Perm::Read);
    table.claim(2, 0x2000, 0x1000).perms.set(1, Perm::ReadWrite);
    table.claim(4096, 0x9000, 0x1000);
    ASSERT_NE(table.find(5), nullptr);
    EXPECT_EQ(table.find(5)->domain, 5u);
    EXPECT_EQ(table.find(5)->key, kInvalidKey);
    EXPECT_EQ(table.find(5)->base, 0x5000u);
    EXPECT_EQ(table.find(4096)->size, 0x1000u);
    EXPECT_EQ(table.find(5)->perms.get(9), Perm::Read);
    EXPECT_EQ(table.find(2)->perms.get(1), Perm::ReadWrite);
    EXPECT_EQ(table.find(4096)->perms.threads().size(), 0u);
    EXPECT_EQ(table.find(kNullDomain), nullptr);
    EXPECT_EQ(table.find(3), nullptr);
    EXPECT_EQ(table.find(4097), nullptr);

    // Detach resets a row in place; a re-claim starts from nothing.
    *table.find(5) = {};
    EXPECT_EQ(table.find(5), nullptr);
    const DomainRow &again = table.claim(5, 0x7000, 0x2000);
    EXPECT_EQ(again.perms.get(9), Perm::None);
    EXPECT_EQ(again.base, 0x7000u);
}

TEST(DomainTableDeathTest, RejectsNullAndOutOfRangeIds)
{
    DomainTable table;
    EXPECT_DEATH(table.claim(kNullDomain, 0, 0), "outside the registry");
    EXPECT_DEATH(table.claim(kMaxDomains, 0, 0), "outside the registry");
}

} // namespace
} // namespace pmodv::arch

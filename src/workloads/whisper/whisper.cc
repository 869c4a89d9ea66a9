#include "workloads/whisper/whisper.hh"

#include <cstring>

#include "common/logging.hh"

namespace pmodv::workloads
{

using pmo::Oid;
using pmo::PmoApi;
using pmo::Pool;
using pmo::Runtime;

void
WhisperWorkload::guardedRead(Runtime &rt, DomainId domain, Oid oid,
                             void *out, std::size_t len)
{
    appWork(rt, instsPerAccess());
    if (guarded_)
        rt.setPerm(tid_, domain, Perm::Read);
    rt.read(tid_, oid, out, len);
    if (guarded_)
        rt.setPerm(tid_, domain, Perm::None);
}

void
WhisperWorkload::guardedWrite(Runtime &rt, DomainId domain, Oid oid,
                              const void *in, std::size_t len)
{
    appWork(rt, instsPerAccess());
    if (guarded_)
        rt.setPerm(tid_, domain, Perm::ReadWrite);
    rt.write(tid_, oid, in, len);
    if (guarded_)
        rt.setPerm(tid_, domain, Perm::None);
}

void
WhisperWorkload::appWork(Runtime &rt, std::uint32_t insts)
{
    rt.compute(tid_, insts);
    // A little volatile (DRAM) traffic goes with the computation.
    rt.volatileAccess(tid_, (Addr{1} << 22) + 64 * (insts % 512), false);
    rt.volatileAccess(tid_, (Addr{1} << 22) + 64 * (insts % 512), true);
}

void
WhisperWorkload::run(pmo::Namespace &ns, trace::TraceSink &sink)
{
    PmoApi api(ns, /*uid=*/1000, /*proc=*/1);
    Runtime &rt = api.runtime();
    rt.setTraceSink(&sink);

    Pool *pool = api.poolCreate(name() + "_pool", params_.poolBytes);
    domain_ = api.domainOf(pool);

    // Setup runs untraced with the permission window open.
    rt.setTraceSink(nullptr);
    rt.setPerm(tid_, domain_, Perm::ReadWrite);
    guarded_ = false;
    setup(api, *pool);
    rt.setPerm(tid_, domain_, Perm::None);
    rt.setTraceSink(&sink);
    guarded_ = true;

    Rng rng(params_.seed);
    for (std::uint64_t i = 0; i < params_.numTxns; ++i) {
        // The op markers carry the pool's domain so TxnCommit events
        // (and the Perfetto spans built from them) are attributable.
        rt.opBegin(tid_, domain_);
        txn(api, *pool, rng);
        rt.opEnd(tid_, domain_);
    }
    sink.finish();
}

// ====================================================================
// Shared pool-resident KV store (echo / ycsb / hashmap / redis).
// ====================================================================

namespace
{

struct KvRoot
{
    std::uint64_t bucketsRaw = 0;
    std::uint32_t numBuckets = 0;
    std::uint32_t pad = 0;
    std::uint64_t lruHeadRaw = 0;
    std::uint64_t lruTailRaw = 0;
    std::uint64_t count = 0;
};

struct KvEntry
{
    std::uint64_t key = 0;
    std::uint64_t nextRaw = 0;
    std::uint64_t lruPrevRaw = 0;
    std::uint64_t lruNextRaw = 0;
    std::uint8_t value[32] = {};
};

static_assert(sizeof(KvEntry) == 64, "KvEntry must stay one line");

std::uint64_t
mixHash(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return key;
}

} // namespace

/** Base for the KV-shaped WHISPER benchmarks. */
class KvBenchBase : public WhisperWorkload
{
  protected:
    explicit KvBenchBase(const WhisperParams &params)
        : WhisperWorkload(params)
    {
    }

    static constexpr unsigned kNumBuckets = 4096;

    Oid rootOid_{};
    Oid bucketsOid_{};

    void
    setup(PmoApi &api, Pool &pool) override
    {
        rootOid_ = api.poolRoot(&pool, sizeof(KvRoot));
        bucketsOid_ = api.pmalloc(&pool, kNumBuckets * 8);
        KvRoot root;
        root.bucketsRaw = bucketsOid_.raw();
        root.numBuckets = kNumBuckets;
        api.runtime().writeValue(tid_, rootOid_, root);
        std::vector<std::uint8_t> zero(kNumBuckets * 8, 0);
        api.runtime().write(tid_, bucketsOid_, zero.data(), zero.size());
        preload(api, pool);
    }

    /** Load the initial key population (benchmark specific). */
    virtual void preload(PmoApi &api, Pool &pool) = 0;

    Oid
    bucketOid(std::uint64_t key) const
    {
        const std::uint32_t idx =
            static_cast<std::uint32_t>(mixHash(key) % kNumBuckets);
        return Oid{bucketsOid_.pool, bucketsOid_.offset + 8 * idx};
    }

    /** Find the entry for @p key; returns the null OID when absent. */
    Oid
    kvFind(Runtime &rt, std::uint64_t key)
    {
        std::uint64_t cur_raw =
            guardedReadValue<std::uint64_t>(rt, domain_,
                                            bucketOid(key));
        while (cur_raw != 0) {
            const Oid cur = Oid::fromRaw(cur_raw);
            // One read covers the entry's key + chain pointer.
            struct
            {
                std::uint64_t key;
                std::uint64_t nextRaw;
            } head{};
            guardedRead(rt, domain_, cur, &head, sizeof(head));
            if (head.key == key)
                return cur;
            cur_raw = head.nextRaw;
        }
        return pmo::kNullOid;
    }

    /** Insert or update; returns true on fresh insert. */
    bool
    kvPut(PmoApi &api, std::uint64_t key, const void *value32)
    {
        Runtime &rt = api.runtime();
        const Oid existing = kvFind(rt, key);
        if (!existing.isNull()) {
            guardedWrite(rt, domain_,
                         Oid{existing.pool, existing.offset + 32},
                         value32, 32);
            return false;
        }
        const Oid fresh = api.pmalloc(
            api.runtime().find(domain_).pool, sizeof(KvEntry));
        return finishInsert(rt, fresh, key, value32);
    }

    bool
    finishInsert(Runtime &rt, Oid fresh, std::uint64_t key,
                 const void *value32)
    {
        KvEntry entry;
        entry.key = key;
        const Oid bucket = bucketOid(key);
        entry.nextRaw = guardedReadValue<std::uint64_t>(rt, domain_,
                                                        bucket);
        std::memcpy(entry.value, value32, 32);
        guardedWrite(rt, domain_, fresh, &entry, sizeof(entry));
        guardedWriteValue<std::uint64_t>(rt, domain_, bucket,
                                         fresh.raw());
        return true;
    }

    /** Read an entry's 32-byte value; false when the key is absent. */
    bool
    kvGet(Runtime &rt, std::uint64_t key, void *out32)
    {
        const Oid entry = kvFind(rt, key);
        if (entry.isNull())
            return false;
        guardedRead(rt, domain_, Oid{entry.pool, entry.offset + 32},
                    out32, 32);
        return true;
    }
};

// ====================================================================
// Echo: epoch-style KV store, 70 % gets / 30 % puts.
// ====================================================================

class EchoWorkload : public KvBenchBase
{
  public:
    explicit EchoWorkload(const WhisperParams &params)
        : KvBenchBase(params)
    {
    }

    std::string name() const override { return "echo"; }
    std::uint32_t instsPerAccess() const override { return 22'000; }

  protected:
    void
    preload(PmoApi &api, Pool &) override
    {
        std::uint8_t value[32] = {1};
        for (unsigned i = 0; i < params_.initialKeys; ++i)
            kvPutSetup(api, i * 7919 + 1, value);
    }

    void
    txn(PmoApi &api, Pool &, Rng &rng) override
    {
        const std::uint64_t key =
            rng.next(params_.initialKeys) * 7919 + 1;
        std::uint8_t value[32];
        if (rng.chance(0.30)) {
            std::memset(value, static_cast<int>(key & 0xff), 32);
            kvPut(api, key, value);
        } else {
            kvGet(api.runtime(), key, value);
        }
    }

    void
    kvPutSetup(PmoApi &api, std::uint64_t key, const void *value32)
    {
        kvPut(api, key, value32);
    }
};

// ====================================================================
// YCSB: 80 % updates / 20 % reads, zipf-skewed keys.
// ====================================================================

class YcsbWorkload : public KvBenchBase
{
  public:
    explicit YcsbWorkload(const WhisperParams &params)
        : KvBenchBase(params)
    {
    }

    std::string name() const override { return "ycsb"; }
    std::uint32_t instsPerAccess() const override { return 13'500; }

  protected:
    void
    preload(PmoApi &api, Pool &) override
    {
        std::uint8_t value[32] = {2};
        for (unsigned i = 0; i < params_.initialKeys; ++i)
            kvPut(api, i + 1, value);
    }

    void
    txn(PmoApi &api, Pool &, Rng &rng) override
    {
        const std::uint64_t key =
            rng.zipf(params_.initialKeys, 0.9) + 1;
        std::uint8_t value[32];
        if (rng.chance(0.80)) {
            std::memset(value, static_cast<int>(key & 0xff), 32);
            kvPut(api, key, value);
        } else {
            kvGet(api.runtime(), key, value);
        }
    }
};

// ====================================================================
// TPCC: new-order-style multi-record transactions over fixed tables.
// ====================================================================

class TpccWorkload : public WhisperWorkload
{
  public:
    explicit TpccWorkload(const WhisperParams &params)
        : WhisperWorkload(params)
    {
    }

    std::string name() const override { return "tpcc"; }
    std::uint32_t instsPerAccess() const override { return 16'000; }

  protected:
    static constexpr unsigned kWarehouses = 8;
    static constexpr unsigned kDistricts = 80;
    static constexpr unsigned kCustomers = 3'000;
    static constexpr unsigned kStock = 5'000;
    static constexpr unsigned kRecordBytes = 64;

    Oid warehouse_{}, district_{}, customer_{}, stock_{}, orders_{};
    std::uint64_t nextOrder_ = 0;
    std::uint64_t orderCapacity_ = 0;

    void
    setup(PmoApi &api, Pool &pool) override
    {
        warehouse_ = api.pmalloc(&pool, kWarehouses * kRecordBytes);
        district_ = api.pmalloc(&pool, kDistricts * kRecordBytes);
        customer_ = api.pmalloc(&pool, kCustomers * kRecordBytes);
        stock_ = api.pmalloc(&pool, kStock * kRecordBytes);
        orderCapacity_ = params_.numTxns + 16;
        orders_ = api.pmalloc(&pool, orderCapacity_ * kRecordBytes);

        std::uint8_t rec[kRecordBytes] = {3};
        Runtime &rt = api.runtime();
        for (unsigned i = 0; i < kWarehouses; ++i)
            rt.write(tid_, at(warehouse_, i), rec, kRecordBytes);
        for (unsigned i = 0; i < kDistricts; ++i)
            rt.write(tid_, at(district_, i), rec, kRecordBytes);
        for (unsigned i = 0; i < kCustomers; ++i)
            rt.write(tid_, at(customer_, i), rec, kRecordBytes);
        for (unsigned i = 0; i < kStock; ++i)
            rt.write(tid_, at(stock_, i), rec, kRecordBytes);
    }

    static Oid
    at(Oid base, std::uint64_t idx)
    {
        return Oid{base.pool,
                   base.offset +
                       static_cast<std::uint32_t>(idx * kRecordBytes)};
    }

    void
    txn(PmoApi &api, Pool &, Rng &rng) override
    {
        Runtime &rt = api.runtime();
        std::uint8_t rec[kRecordBytes];

        // Read warehouse + district, bump the district order counter.
        guardedRead(rt, domain_, at(warehouse_, rng.next(kWarehouses)),
                    rec, kRecordBytes);
        const Oid d = at(district_, rng.next(kDistricts));
        guardedRead(rt, domain_, d, rec, kRecordBytes);
        rec[0] += 1;
        guardedWrite(rt, domain_, d, rec, kRecordBytes);

        // Read the customer, append the order record.
        guardedRead(rt, domain_, at(customer_, rng.next(kCustomers)),
                    rec, kRecordBytes);
        guardedWrite(rt, domain_,
                     at(orders_, nextOrder_ % orderCapacity_), rec,
                     kRecordBytes);
        ++nextOrder_;

        // Five stock line items: read-modify-write each.
        for (unsigned i = 0; i < 5; ++i) {
            const Oid s = at(stock_, rng.next(kStock));
            guardedRead(rt, domain_, s, rec, kRecordBytes);
            rec[1] += 1;
            guardedWrite(rt, domain_, s, rec, kRecordBytes);
        }
    }
};

// ====================================================================
// C-tree: binary search tree, insert-only (Table III: 100K inserts).
// ====================================================================

class CtreeWorkload : public WhisperWorkload
{
  public:
    explicit CtreeWorkload(const WhisperParams &params)
        : WhisperWorkload(params)
    {
    }

    std::string name() const override { return "ctree"; }
    std::uint32_t instsPerAccess() const override { return 18'500; }

  protected:
    struct TreeNode
    {
        std::uint64_t key = 0;
        std::uint64_t leftRaw = 0;
        std::uint64_t rightRaw = 0;
        std::uint8_t value[40] = {};
    };
    static_assert(sizeof(TreeNode) == 64, "ctree node must stay 64 B");

    Oid rootOid_{}; ///< Holds the raw OID of the tree root node.

    void
    setup(PmoApi &api, Pool &pool) override
    {
        rootOid_ = api.poolRoot(&pool, 8);
        const std::uint64_t zero = 0;
        api.runtime().writeValue(tid_, rootOid_, zero);
        Rng rng(params_.seed ^ 0xc7ee);
        for (unsigned i = 0; i < params_.initialKeys / 10; ++i)
            insert(api, rng.raw());
    }

    void
    txn(PmoApi &api, Pool &, Rng &rng) override
    {
        insert(api, rng.raw());
    }

    void
    insert(PmoApi &api, std::uint64_t key)
    {
        Runtime &rt = api.runtime();
        std::uint64_t cur_raw =
            guardedReadValue<std::uint64_t>(rt, domain_, rootOid_);
        if (cur_raw == 0) {
            const Oid fresh = makeNode(api, key);
            guardedWriteValue<std::uint64_t>(rt, domain_, rootOid_,
                                             fresh.raw());
            return;
        }
        while (true) {
            const Oid cur = Oid::fromRaw(cur_raw);
            struct
            {
                std::uint64_t key;
                std::uint64_t leftRaw;
                std::uint64_t rightRaw;
            } head{};
            guardedRead(rt, domain_, cur, &head, sizeof(head));
            if (key == head.key) {
                guardedWrite(rt, domain_,
                             Oid{cur.pool, cur.offset + 24},
                             &key, 8); // Refresh the value prefix.
                return;
            }
            const bool go_left = key < head.key;
            const std::uint64_t child =
                go_left ? head.leftRaw : head.rightRaw;
            if (child == 0) {
                const Oid fresh = makeNode(api, key);
                const Oid link{cur.pool, cur.offset +
                                             (go_left ? 8u : 16u)};
                guardedWriteValue<std::uint64_t>(rt, domain_, link,
                                                 fresh.raw());
                return;
            }
            cur_raw = child;
        }
    }

    Oid
    makeNode(PmoApi &api, std::uint64_t key)
    {
        const Oid fresh = api.pmalloc(
            api.runtime().find(domain_).pool, sizeof(TreeNode));
        TreeNode node;
        node.key = key;
        guardedWrite(api.runtime(), domain_, fresh, &node,
                     sizeof(node));
        return fresh;
    }
};

// ====================================================================
// Hashmap: insert-only hash table (Table III: 100K inserts).
// ====================================================================

class HashmapWorkload : public KvBenchBase
{
  public:
    explicit HashmapWorkload(const WhisperParams &params)
        : KvBenchBase(params)
    {
    }

    std::string name() const override { return "hashmap"; }
    std::uint32_t instsPerAccess() const override { return 18'000; }

  protected:
    void
    preload(PmoApi &api, Pool &) override
    {
        std::uint8_t value[32] = {4};
        for (unsigned i = 0; i < params_.initialKeys / 10; ++i)
            kvPut(api, mixHash(i) | 1, value);
    }

    void
    txn(PmoApi &api, Pool &, Rng &rng) override
    {
        std::uint8_t value[32];
        const std::uint64_t key = rng.raw() | 1;
        std::memset(value, static_cast<int>(key & 0xff), 32);
        kvPut(api, key, value);
    }
};

// ====================================================================
// Redis: LRU-cached KV store, gets move entries to the LRU head.
// ====================================================================

class RedisWorkload : public KvBenchBase
{
  public:
    explicit RedisWorkload(const WhisperParams &params)
        : KvBenchBase(params)
    {
    }

    std::string name() const override { return "redis"; }
    std::uint32_t instsPerAccess() const override { return 15'000; }

  protected:
    void
    preload(PmoApi &api, Pool &) override
    {
        std::uint8_t value[32] = {5};
        for (unsigned i = 0; i < params_.initialKeys; ++i) {
            kvPut(api, i + 1, value);
            lruPushFront(api.runtime(), kvFind(api.runtime(), i + 1));
        }
    }

    void
    txn(PmoApi &api, Pool &, Rng &rng) override
    {
        Runtime &rt = api.runtime();
        const std::uint64_t key = rng.zipf(params_.initialKeys, 0.8) + 1;
        std::uint8_t value[32];
        if (rng.chance(0.5)) {
            // GET + LRU touch.
            const Oid entry = kvFind(rt, key);
            if (!entry.isNull()) {
                guardedRead(rt, domain_,
                            Oid{entry.pool, entry.offset + 32}, value,
                            32);
                lruMoveToFront(rt, entry);
            }
        } else {
            // PUT (update or insert) + LRU push.
            std::memset(value, static_cast<int>(key & 0xff), 32);
            const Oid existing = kvFind(rt, key);
            if (!existing.isNull()) {
                guardedWrite(rt, domain_,
                             Oid{existing.pool, existing.offset + 32},
                             value, 32);
                lruMoveToFront(rt, existing);
            } else {
                const Oid fresh = api.pmalloc(
                    api.runtime().find(domain_).pool, sizeof(KvEntry));
                finishInsert(rt, fresh, key, value);
                lruPushFront(rt, fresh);
            }
        }
    }

  private:
    Oid
    lruHeadOid() const
    {
        return Oid{rootOid_.pool,
                   static_cast<std::uint32_t>(
                       rootOid_.offset + offsetof(KvRoot, lruHeadRaw))};
    }

    Oid
    lruTailOid() const
    {
        return Oid{rootOid_.pool,
                   static_cast<std::uint32_t>(
                       rootOid_.offset + offsetof(KvRoot, lruTailRaw))};
    }

    static Oid
    lruPrevOid(Oid entry)
    {
        return Oid{entry.pool,
                   static_cast<std::uint32_t>(
                       entry.offset + offsetof(KvEntry, lruPrevRaw))};
    }

    static Oid
    lruNextOid(Oid entry)
    {
        return Oid{entry.pool,
                   static_cast<std::uint32_t>(
                       entry.offset + offsetof(KvEntry, lruNextRaw))};
    }

    void
    lruPushFront(Runtime &rt, Oid entry)
    {
        const std::uint64_t head =
            guardedReadValue<std::uint64_t>(rt, domain_, lruHeadOid());
        guardedWriteValue<std::uint64_t>(rt, domain_,
                                         lruNextOid(entry), head);
        guardedWriteValue<std::uint64_t>(rt, domain_,
                                         lruPrevOid(entry), 0);
        if (head != 0) {
            guardedWriteValue<std::uint64_t>(
                rt, domain_, lruPrevOid(Oid::fromRaw(head)),
                entry.raw());
        } else {
            guardedWriteValue<std::uint64_t>(rt, domain_, lruTailOid(),
                                             entry.raw());
        }
        guardedWriteValue<std::uint64_t>(rt, domain_, lruHeadOid(),
                                         entry.raw());
    }

    void
    lruUnlink(Runtime &rt, Oid entry)
    {
        const std::uint64_t prev =
            guardedReadValue<std::uint64_t>(rt, domain_,
                                            lruPrevOid(entry));
        const std::uint64_t next =
            guardedReadValue<std::uint64_t>(rt, domain_,
                                            lruNextOid(entry));
        if (prev != 0) {
            guardedWriteValue<std::uint64_t>(
                rt, domain_, lruNextOid(Oid::fromRaw(prev)), next);
        } else {
            guardedWriteValue<std::uint64_t>(rt, domain_, lruHeadOid(),
                                             next);
        }
        if (next != 0) {
            guardedWriteValue<std::uint64_t>(
                rt, domain_, lruPrevOid(Oid::fromRaw(next)), prev);
        } else {
            guardedWriteValue<std::uint64_t>(rt, domain_, lruTailOid(),
                                             prev);
        }
    }

    void
    lruMoveToFront(Runtime &rt, Oid entry)
    {
        lruUnlink(rt, entry);
        lruPushFront(rt, entry);
    }
};

// ====================================================================
// Factory.
// ====================================================================

std::unique_ptr<WhisperWorkload>
makeWhisper(const std::string &name, const WhisperParams &params)
{
    if (name == "echo")
        return std::make_unique<EchoWorkload>(params);
    if (name == "ycsb")
        return std::make_unique<YcsbWorkload>(params);
    if (name == "tpcc")
        return std::make_unique<TpccWorkload>(params);
    if (name == "ctree")
        return std::make_unique<CtreeWorkload>(params);
    if (name == "hashmap")
        return std::make_unique<HashmapWorkload>(params);
    if (name == "redis")
        return std::make_unique<RedisWorkload>(params);
    fatal("unknown WHISPER benchmark '%s'", name.c_str());
}

const std::vector<std::string> &
whisperNames()
{
    static const std::vector<std::string> names{
        "echo", "ycsb", "tpcc", "ctree", "hashmap", "redis"};
    return names;
}

} // namespace pmodv::workloads

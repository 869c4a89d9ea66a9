#include "arch/factory.hh"

#include "arch/domain_virt.hh"
#include "arch/libmpk.hh"
#include "arch/mpk.hh"
#include "arch/mpk_virt.hh"
#include "common/logging.hh"

namespace pmodv::arch
{

namespace
{

/**
 * The two baselines without protection structures: every access is
 * allowed at zero cost. The unprotected baseline ("none") charges
 * nothing; the ideal lowerbound charges each SETPERM its WRPKRU
 * latency, and every access is (correctly, by construction of the
 * workloads) allowed.
 *
 * The class is private to this file: where the replay loop can see one
 * concrete scheme's inline bodies, gcc speculatively devirtualizes
 * every scheme call in it to them, a compare and branch on each call
 * of every other scheme.
 */
class PassThroughScheme : public ProtectionScheme
{
  public:
    PassThroughScheme(stats::Group *parent, std::string name,
                      bool charge_setperm, const ProtParams &params,
                      const CoreTopology &topo)
        : ProtectionScheme(parent, std::move(name), params, topo),
          chargeSetPerm_(charge_setperm)
    {
        setAlwaysAllows();
    }

    CheckResult
    checkAccess(const AccessContext &) override
    {
        return {};
    }

    Cycles
    setPerm(ThreadId, DomainId, Perm) override
    {
        return chargeSetPerm_ ? chargeSetPerm() : 0;
    }

    Cycles attach(ThreadId, DomainId, Addr, Addr, Perm) override
    {
        return 0;
    }
    Cycles detach(ThreadId, DomainId) override { return 0; }
    Cycles contextSwitch(ThreadId, ThreadId) override { return 0; }

    Perm
    effectivePerm(ThreadId, DomainId) const override
    {
        return Perm::ReadWrite;
    }

  private:
    bool chargeSetPerm_;
};

} // namespace

std::unique_ptr<ProtectionScheme>
makeScheme(SchemeKind kind, stats::Group *parent,
           const ProtParams &params, const CoreTopology &topo)
{
    switch (kind) {
      case SchemeKind::NoProtection:
      case SchemeKind::Lowerbound:
        // Only the lowerbound prices its permission changes.
        return std::make_unique<PassThroughScheme>(
            parent, schemeName(kind), kind == SchemeKind::Lowerbound,
            params, topo);
      case SchemeKind::Mpk:
        return std::make_unique<MpkScheme>(parent, params, topo);
      case SchemeKind::LibMpk:
        return std::make_unique<LibMpkScheme>(parent, params, topo);
      case SchemeKind::MpkVirt:
        return std::make_unique<MpkVirtScheme>(parent, params, topo);
      case SchemeKind::DomainVirt:
        return std::make_unique<DomainVirtScheme>(parent, params, topo);
    }
    panic("unhandled scheme kind");
}

} // namespace pmodv::arch

/**
 * @file
 * Factory for protection schemes.
 */

#ifndef PMODV_ARCH_FACTORY_HH
#define PMODV_ARCH_FACTORY_HH

#include <memory>

#include "arch/scheme.hh"

namespace pmodv::arch
{

/** Instantiate the scheme @p kind under @p parent. */
std::unique_ptr<ProtectionScheme>
makeScheme(SchemeKind kind, stats::Group *parent,
           const ProtParams &params, const CoreTopology &topo);

} // namespace pmodv::arch

#endif // PMODV_ARCH_FACTORY_HH

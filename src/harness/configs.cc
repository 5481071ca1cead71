#include "harness/configs.hh"

#include "baseline/base_system.hh"
#include "common/logging.hh"
#include "d2m/d2m_system.hh"
#include "d2m/location_info.hh"

namespace d2m
{

const char *
configKindName(ConfigKind kind)
{
    switch (kind) {
      case ConfigKind::Base2L: return "Base-2L";
      case ConfigKind::Base3L: return "Base-3L";
      case ConfigKind::D2mFs: return "D2M-FS";
      case ConfigKind::D2mNs: return "D2M-NS";
      case ConfigKind::D2mNsR: return "D2M-NS-R";
    }
    return "?";
}

std::vector<ConfigKind>
allConfigs()
{
    return {ConfigKind::Base2L, ConfigKind::Base3L, ConfigKind::D2mFs,
            ConfigKind::D2mNs, ConfigKind::D2mNsR};
}

SystemParams
paramsFor(ConfigKind kind, SystemParams base)
{
    switch (kind) {
      case ConfigKind::Base2L:
        base.l2.sizeBytes = 0;
        break;
      case ConfigKind::Base3L:
        base.l2.sizeBytes = 256 * 1024;
        base.l2.assoc = 8;
        break;
      case ConfigKind::D2mFs:
        base.l2.sizeBytes = 0;
        base.nearSideLlc = false;
        base.replication = false;
        base.dynamicIndexing = false;
        break;
      case ConfigKind::D2mNs:
        base.l2.sizeBytes = 0;
        base.nearSideLlc = true;
        base.replication = false;
        base.dynamicIndexing = false;
        break;
      case ConfigKind::D2mNsR:
        base.l2.sizeBytes = 0;
        base.nearSideLlc = true;
        base.replication = true;
        base.dynamicIndexing = true;
        break;
    }
    return base;
}

std::string
configError(ConfigKind kind, const SystemParams &base)
{
    switch (kind) {
      case ConfigKind::Base2L:
      case ConfigKind::Base3L:
        return {};
      case ConfigKind::D2mFs:
      case ConfigKind::D2mNs:
      case ConfigKind::D2mNsR:
        return liEncodingError(paramsFor(kind, base));
    }
    return {};
}

std::unique_ptr<MemorySystem>
makeSystem(ConfigKind kind, const SystemParams &base)
{
    const SystemParams p = paramsFor(kind, base);
    switch (kind) {
      case ConfigKind::Base2L:
      case ConfigKind::Base3L:
        return std::make_unique<BaselineSystem>(configKindName(kind), p);
      case ConfigKind::D2mFs:
      case ConfigKind::D2mNs:
      case ConfigKind::D2mNsR:
        return std::make_unique<D2mSystem>(configKindName(kind), p);
    }
    panic("unknown configuration kind");
}

} // namespace d2m

#include "d2m/d2m_system.hh"

#include <algorithm>
#include <bit>
#include <tuple>

#include "common/logging.hh"
#include "obs/selfprof.hh"
#include "obs/trace.hh"

namespace d2m
{

namespace
{

/** Map a ServiceLevel onto the coverage-matrix data-level index. */
unsigned
dataLevelIndex(ServiceLevel level)
{
    switch (level) {
      case ServiceLevel::L1: return 0;
      case ServiceLevel::L2: return 1;
      case ServiceLevel::LLC_NEAR:
      case ServiceLevel::LLC_FAR: return 2;
      case ServiceLevel::MEMORY: return 3;
      case ServiceLevel::REMOTE: return 4;
    }
    return 3;
}

} // namespace

D2mSystem::D2mSystem(std::string name, const SystemParams &params)
    : MemorySystem(std::move(name), params, params.lat.nocHop),
      regionShift_(params.regionShift()),
      regionLinesLog_(floorLog2(params.regionLines)),
      nearSide_(params.nearSideLlc),
      codec_(params),
      placement_(llcSlices(params),
                 params.nsRemoteAllocShare, params.seed ^ 0x9157ull),
      scrambler_(params.dynamicIndexing, params.seed ^ 0xd2d2d2d2ull),
      stats_("hier", this),
      events_("events", this)
{
    fatal_if(params.regionLines > maxRegionLines,
             "region lines (%u) exceed the fixed LI-vector size",
             params.regionLines);
    fatal_if(params.nearSideLlc && params.llc.assoc % params.numNodes != 0,
             "NS-LLC requires llc ways divisible by node count");

    const unsigned lshift = lineShift_;
    nodes_.resize(params.numNodes);
    for (unsigned n = 0; n < params.numNodes; ++n) {
        const std::string prefix = "node" + std::to_string(n);
        NodeCtx &ctx = nodes_[n];
        ctx.tlb2 = std::make_unique<Tlb>(prefix + ".tlb2", this,
                                         params.tlb2Entries,
                                         params.pageShift);
        // MD1 capacity is split between the I and D sides (footnote 2).
        ctx.md1i = std::make_unique<RegionStore<Md1Entry>>(
            prefix + ".md1i", this, params.md1Entries / 2, params.md1Assoc);
        ctx.md1d = std::make_unique<RegionStore<Md1Entry>>(
            prefix + ".md1d", this, params.md1Entries / 2, params.md1Assoc);
        ctx.md2 = std::make_unique<RegionStore<Md2Entry>>(
            prefix + ".md2", this, params.md2Entries, params.md2Assoc);
        ctx.l1i = std::make_unique<TaglessCache>(
            prefix + ".l1i", this, params.l1Lines(params.l1i),
            params.l1i.assoc, lshift);
        ctx.l1d = std::make_unique<TaglessCache>(
            prefix + ".l1d", this, params.l1Lines(params.l1d),
            params.l1d.assoc, lshift);
        if (params.l2.present()) {
            ctx.l2 = std::make_unique<TaglessCache>(
                prefix + ".l2", this, params.l1Lines(params.l2),
                params.l2.assoc, lshift);
        }
    }

    const unsigned slices = nearSide_ ? params.numNodes : 1;
    const std::uint32_t lines_per_slice =
        params.l1Lines(params.llc) / slices;
    const std::uint32_t ways_per_slice = params.llc.assoc / slices;
    for (unsigned s = 0; s < slices; ++s) {
        llc_.push_back(std::make_unique<TaglessCache>(
            "llc" + std::to_string(s), this, lines_per_slice,
            ways_per_slice, lshift, params.dynamicIndexing));
    }

    md3_ = std::make_unique<RegionStore<Md3Entry>>(
        "md3", this, params.md3Entries, params.md3Assoc);

    nextPressureEpoch_ = params.nsPressurePeriod;
}

const char *
D2mSystem::configName() const
{
    if (!nearSide_)
        return "D2M-FS";
    return params_.replication ? "D2M-NS-R" : "D2M-NS";
}

RegionClass
D2mSystem::regionClass(std::uint64_t pregion) const
{
    const Md3Entry *e3 = md3_->probe(pregion);
    return classify(e3 != nullptr, e3 ? e3->pb : 0);
}

void
D2mSystem::lockRegion(std::uint64_t pregion)
{
    // The blocking mechanism serializes region transactions (Appendix;
    // modeled after WildFire-style deterministic directories). With
    // atomic transaction execution locks never contend; acquisitions
    // are still counted for the hash-collision sizing argument.
    (void)pregion;
    ++events_.lockAcquisitions;
}

// ===================================================================
// Metadata management
// ===================================================================

Md2Entry *
D2mSystem::md2For(NodeId node, std::uint64_t pregion, bool charge_energy)
{
    Md2Entry *e2 = nodes_[node].md2->probe(pregion);
    if (!e2)
        return nullptr;
    if (charge_energy)
        energy_.count(Structure::Md2);
    if (e2->activeInMd1) {
        panic_if(!linked(node, trackedMd1(node, *e2), *e2),
                 "MD2 tracking pointer names a stale MD1 entry");
        if (charge_energy)
            energy_.count(Structure::Md1);
    }
    return e2;
}

void
D2mSystem::evictMd1Entry(NodeId node, Md1Entry &e1)
{
    // MD1 eviction writes the region's metadata back to MD2 (footnote
    // 1). MD2 already holds it, so only its tracking pointer clears.
    // Cached lines stay where they are.
    Md2Entry &e2 = md2Of(node, e1);
    panic_if(!linked(node, e1, e2), "MD1 entry without a backing MD2 entry");
    e2.activeInMd1 = false;
    energy_.count(Structure::Md2);
    e1.valid = false;
}

void
D2mSystem::promoteToMd1(NodeId node, bool side_i, AsId asid, Addr vaddr,
                        Md2Entry &e2)
{
    obs::ProfScope prof(obs::ProfSite::Md1Promote);
    auto &md1 = md1For(node, side_i);
    const std::uint64_t key = md1Key(asid, vaddr);
    Md1Entry &slot = md1.victimFor(key);
    if (slot.valid)
        evictMd1Entry(node, slot);
    md1.bind(slot, key);
    std::tie(slot.md2Set, slot.md2Way) = nodes_[node].md2->positionOf(e2);
    md1.markInstalled(slot);
    std::tie(e2.md1Set, e2.md1Way) = md1.positionOf(slot);
    e2.activeInMd1 = true;
    e2.md1SideI = side_i;
    energy_.count(Structure::Md1);
}

Md2Entry &
D2mSystem::lookupMetadata(NodeId node, const MemAccess &acc, bool side_i,
                          Cycles &lat, unsigned &md_level)
{
    obs::ProfScope prof(obs::ProfSite::MdLookup);
    NodeCtx &ctx = nodes_[node];
    auto &md1 = md1For(node, side_i);

    // MD1 lookup replaces the TLB: virtually tagged, charged like one.
    energy_.count(Structure::Md1);
    if (Md1Entry *e1 = md1.find(md1Key(acc.asid, acc.vaddr))) [[likely]] {
        md_level = 0;
        ++events_.md1Hits;
        Md2Entry &e2 = md2Of(node, *e1);
        panic_if(!linked(node, *e1, e2), "MD1 inclusion in MD2 violated");
        obs::protoEvent(obs::ProtoEvent::Md1Hit, node, e2.key);
        return e2;
    }

    // MD1 miss: physical path through TLB2 and MD2 (Figure 1).
    energy_.count(Structure::Tlb2);
    lat += params_.lat.tlb2;
    if (!ctx.tlb2->lookup(acc.asid, acc.vaddr)) {
        energy_.count(Structure::PageWalk);
        lat += params_.lat.pageWalk;
    }
    const Addr paddr = pageTable_.translate(acc.asid, acc.vaddr);
    const std::uint64_t pregion = paddr >> regionShift_;

    energy_.count(Structure::Md2);
    lat += params_.lat.md2;
    if (Md2Entry *e2 = ctx.md2->find(pregion)) {
        md_level = 1;
        ++events_.md2Hits;
        obs::protoEvent(obs::ProtoEvent::Md2Hit, node, pregion);
        if (e2->activeInMd1) {
            // Cached in the other side's MD1 (footnote 2): migrate.
            // L1-kind LIs are flushed first since the LI encoding
            // cannot name the other side's L1.
            const bool old_side = e2->md1SideI;
            for (unsigned i = 0; i < params_.regionLines; ++i) {
                if (e2->li[i].kind == LiKind::L1) {
                    evictLocal(node, /*in_l1=*/true,
                               slotAt(node, old_side, e2->li[i],
                                      regionLine(pregion, i), e2->scramble));
                }
            }
            evictMd1Entry(node, trackedMd1(node, *e2));
        }
        promoteToMd1(node, side_i, acc.asid, acc.vaddr, *e2);
        return *e2;
    }

    md_level = 2;
    return caseD(node, side_i, acc.asid, acc.vaddr, pregion, lat);
}

Md2Entry &
D2mSystem::caseD(NodeId node, bool side_i, AsId asid, Addr vaddr,
                 std::uint64_t pregion, Cycles &lat)
{
    obs::ProfScope prof(obs::ProfSite::Md3);
    ++stats_.dirIndirections;
    ++events_.md3Lookups;
    obs::protoEvent(obs::ProtoEvent::Md3Lookup, node, pregion);
    lat += noc_.send(node, farSide(), MsgType::ReadMM);
    energy_.count(Structure::Md3);
    lat += params_.lat.md3;
    lockRegion(pregion);

    LiVector lis{};
    bool priv = false;
    std::uint32_t scramble = 0;

    Md3Entry *e3 = md3_->find(pregion);
    if (!e3) {
        // D4: uncached -> private. Allocate an MD3 entry.
        ++events_.d4;
        Md3Entry &slot = [&]() -> Md3Entry & {
            obs::ProfScope evict_prof(obs::ProfSite::Md3Evict);
            auto cost = [this](const Md3Entry &e) {
                unsigned tracked = 0;
                for (unsigned i = 0; i < params_.regionLines; ++i)
                    if (e.li[i].kind == LiKind::Llc)
                        ++tracked;
                return 4 * popCountU64(e.pb) + tracked;
            };
            Md3Entry &victim = md3_->victimFor(pregion, cost);
            if (victim.valid)
                globalMd3Evict(victim);
            return victim;
        }();
        md3_->bind(slot, pregion);
        slot.pb = std::uint64_t(1) << node;
        slot.scramble = scrambler_.next();
        obs::protoEvent(obs::ProtoEvent::D4Scramble, node, pregion,
                        slot.scramble);
        for (auto &li : slot.li)
            li = LocationInfo::invalid();  // private: MD3 LIs invalid
        md3_->markInstalled(slot);
        for (auto &li : lis)
            li = LocationInfo::mem();
        priv = true;
        scramble = slot.scramble;
    } else {
        scramble = e3->scramble;
        const RegionClass cls = classify(true, e3->pb);
        switch (cls) {
          case RegionClass::Untracked:
            // D1: untracked -> private. The node inherits MD3's LIs.
            ++events_.d1;
            lis = e3->li;
            for (auto &li : lis) {
                if (li.isInvalid())
                    li = LocationInfo::mem();
            }
            for (auto &li : e3->li)
                li = LocationInfo::invalid();
            e3->pb = std::uint64_t(1) << node;
            priv = true;
            break;
          case RegionClass::Private: {
            // D2: private -> shared. Pull metadata from the owner.
            ++events_.d2;
            ++events_.privateToShared;
            obs::traceEvent(obs::TraceKind::RegionClass, node, pregion,
                            /*shared=*/1, /*was_shared=*/0);
            const NodeId owner = std::countr_zero(e3->pb);
            noc_.send(farSide(), owner, MsgType::GetMD);
            Md2Entry *md_o = md2For(owner, pregion);
            panic_if(!md_o, "PB bit without MD2 entry");
            md_o->privateBit = false;
            // Convert owner-local LIs to globally meaningful ones: a
            // local master means "in node owner", otherwise the chain
            // ends at the master.
            for (unsigned i = 0; i < params_.regionLines; ++i) {
                bool local_master = false;
                const LocationInfo end = walkLocal(
                    owner, md_o->md1SideI, md_o->li[i],
                    regionLine(pregion, i), md_o->scramble,
                    [&](TaglessLine &slot) { local_master |= slot.master; });
                e3->li[i] = local_master ? LocationInfo::inNode(owner) : end;
            }
            noc_.send(owner, farSide(), MsgType::MDReply);
            lat += 2 * params_.lat.nocHop + params_.lat.md2;
            lis = e3->li;
            e3->pb |= std::uint64_t(1) << node;
            priv = false;
            break;
          }
          case RegionClass::Shared:
            // D3: shared -> shared.
            ++events_.d3;
            lis = e3->li;
            e3->pb |= std::uint64_t(1) << node;
            priv = false;
            break;
          case RegionClass::Uncached:
            panic("valid MD3 entry classified uncached");
        }
    }

    // Allocate the node's MD2 entry (spilling a victim region). The
    // replacement favors regions with few cachelines present
    // (Section II-A).
    NodeCtx &ctx = nodes_[node];
    auto cost2 = [this](const Md2Entry &e) {
        unsigned local = 0;
        for (unsigned i = 0; i < params_.regionLines; ++i) {
            if (e.li[i].isLocalCache())
                ++local;
        }
        return local;
    };
    Md2Entry &slot2 = [&]() -> Md2Entry & {
        obs::ProfScope victim_prof(obs::ProfSite::Md2Victim);
        return ctx.md2->victimFor(pregion, cost2);
    }();
    if (slot2.valid)
        nodeRegionEvict(node, slot2.key);
    ctx.md2->bind(slot2, pregion);
    slot2.privateBit = priv;
    slot2.scramble = scramble;
    slot2.li = lis;
    slot2.activeInMd1 = false;
    slot2.md1SideI = side_i;
    ctx.md2->markInstalled(slot2);
    energy_.count(Structure::Md2);

    lat += noc_.send(farSide(), node, MsgType::MDReply);

    promoteToMd1(node, side_i, asid, vaddr, slot2);
    noc_.send(node, farSide(), MsgType::Done);
    return slot2;
}

// ===================================================================
// Local copy chains
// ===================================================================

TaglessLine &
D2mSystem::slotAt(NodeId node, bool side_i, const LocationInfo &li,
                  Addr line_addr, std::uint32_t scramble)
{
    TaglessCache *arr = nullptr;
    switch (li.kind) {
      case LiKind::L1: arr = &l1For(node, side_i); break;
      case LiKind::L2: arr = nodes_[node].l2.get(); break;
      case LiKind::Llc: arr = llc_[li.node].get(); break;
      default:
        panic("LI kind %d names no data slot", static_cast<int>(li.kind));
    }
    return arr->at(arr->setFor(line_addr, scramble), li.way);
}

bool
D2mSystem::liIsLocal(NodeId node, const LocationInfo &li, Addr line_addr,
                     std::uint32_t scramble)
{
    switch (li.kind) {
      case LiKind::L1:
      case LiKind::L2:
        return true;
      case LiKind::Llc: {
        if (!nearSide_ || li.node != node)
            return false;
        const TaglessLine &slot =
            slotAt(node, /*side_i=*/false, li, line_addr, scramble);
        return slot.valid && slot.lineAddr == line_addr && !slot.master &&
               slot.ownerNode == node;
      }
      default:
        return false;
    }
}

template <typename Fn>
LocationInfo
D2mSystem::walkLocal(NodeId node, bool side_i, LocationInfo li,
                     Addr line_addr, std::uint32_t scramble, Fn &&fn)
{
    while (liIsLocal(node, li, line_addr, scramble)) {
        TaglessLine &slot = slotAt(node, side_i, li, line_addr, scramble);
        panic_if(!slot.valid || slot.lineAddr != line_addr,
                 "local chain determinism violated");
        li = slot.rp;
        fn(slot);
    }
    return li;
}

D2mSystem::DropResult
D2mSystem::dropLocalCopies(NodeId node, Md2Entry &md, unsigned line_idx,
                           Addr line_addr)
{
    DropResult result;
    md.li[line_idx] = walkLocal(
        node, md.md1SideI, md.li[line_idx], line_addr, md.scramble,
        [&](TaglessLine &slot) {
            result.droppedAny = true;
            if (slot.master) {
                result.droppedMaster = true;
                result.masterValue = slot.value;
                result.masterDirty = slot.dirty;
            }
            slot.invalidate();
        });
    return result;
}

std::uint64_t
D2mSystem::readLocalValue(NodeId node, Md2Entry &md, unsigned line_idx,
                          Addr line_addr, Cycles &lat)
{
    const LocationInfo li = md.li[line_idx];
    const TaglessLine &slot =
        slotAt(node, md.md1SideI, li, line_addr, md.scramble);
    panic_if(!slot.valid || slot.lineAddr != line_addr,
             "LI determinism violated (LI kind %d)",
             static_cast<int>(li.kind));
    switch (li.kind) {
      case LiKind::L1:
        energy_.count(Structure::L1Data);
        lat += params_.lat.l1Hit;
        break;
      case LiKind::L2:
        energy_.count(Structure::L2Data);
        lat += params_.lat.l2;
        break;
      default:
        energy_.count(Structure::LlcData);
        lat += params_.lat.llc;
        break;
    }
    return slot.value;
}

// ===================================================================
// Evictions
// ===================================================================

LocationInfo
D2mSystem::allocateVictimInLlc(NodeId node, Addr line_addr,
                               std::uint32_t scramble)
{
    const std::uint32_t slice = nearSide_ ? placement_.chooseSlice(node) : 0;
    TaglessCache &arr = *llc_[slice];
    const std::uint32_t set = arr.setFor(line_addr, scramble);
    const std::uint32_t way = arr.victimWay(set);
    evictLlcSlot(slice, set, way);
    placement_.recordReplacement(slice);
    return LocationInfo::inLlc(slice, way);
}

void
D2mSystem::evictLlcSlot(std::uint32_t slice, std::uint32_t set,
                        std::uint32_t way)
{
    TaglessLine &slot = llc_[slice]->at(set, way);
    if (!slot.valid)
        return;
    const Addr line_addr = slot.lineAddr;
    const std::uint64_t pregion = regionOf(line_addr);
    const unsigned idx = lineIdxOf(line_addr);

    if (!slot.master) {
        // Replica: silent for the system; the owning node's pointers
        // are repaired locally (replicas live in the owner's slice).
        const NodeId owner = slot.ownerNode;
        panic_if(owner == invalidNode, "replica without an owner");
        Md2Entry *md = md2For(owner, pregion);
        panic_if(!md, "replica inclusion in MD2 violated");
        const LocationInfo here = LocationInfo::inLlc(slice, way);
        const LocationInfo li = md->li[idx];
        if (li == here) {
            md->li[idx] = slot.rp;
        } else if (li.isLocalCache()) {
            TaglessLine &holder =
                slotAt(owner, md->md1SideI, li, line_addr, md->scramble);
            if (holder.valid && holder.lineAddr == line_addr &&
                holder.rp == here) {
                holder.rp = slot.rp;
            }
        }
        slot.invalidate();
        return;
    }

    // Master eviction from the LLC.
    Md3Entry *e3 = md3_->probe(pregion);
    panic_if(!e3, "MD3 inclusion violated: LLC line without MD3 entry");
    energy_.count(Structure::Md3);
    noc_.send(sliceEndpoint(slice), farSide(), MsgType::EvictReq);

    if (slot.dirty) {
        memory_.write(line_addr, slot.value);
        noc_.send(sliceEndpoint(slice), farSide(), MsgType::MemWrite);
    }

    const RegionClass cls = classify(true, e3->pb);
    const LocationInfo new_loc = LocationInfo::mem();
    switch (cls) {
      case RegionClass::Untracked:
        // Evictable without any metadata coherence (Section IV-A).
        e3->li[idx] = new_loc;
        break;
      case RegionClass::Private: {
        const NodeId owner = std::countr_zero(e3->pb);
        noc_.send(farSide(), owner, MsgType::NewMaster);
        newMasterAtNode(owner, pregion, idx, line_addr, new_loc);
        // The owner may still treat the region as shared (the private
        // bit is set lazily after spills/prunes), in which case MD3's
        // LI for this line is live metadata: keep it fresh.
        if (!e3->li[idx].isInvalid())
            e3->li[idx] = new_loc;
        break;
      }
      case RegionClass::Shared:
        for (NodeId p = 0; p < params_.numNodes; ++p) {
            if (!((e3->pb >> p) & 1))
                continue;
            noc_.send(farSide(), p, MsgType::NewMaster);
            newMasterAtNode(p, pregion, idx, line_addr, new_loc);
        }
        e3->li[idx] = new_loc;
        break;
      case RegionClass::Uncached:
        panic("LLC master in an uncached region");
    }
    slot.invalidate();
}

void
D2mSystem::newMasterAtNode(NodeId n, std::uint64_t pregion,
                           unsigned line_idx, Addr line_addr,
                           const LocationInfo &new_loc)
{
    Md2Entry *md = md2For(n, pregion);
    panic_if(!md, "NewMaster for an untracked region");
    // Repoint the pointer that ends the node's local chain: the LI, or
    // the RP of its last local copy.
    TaglessLine *last = nullptr;
    walkLocal(n, md->md1SideI, md->li[line_idx], line_addr, md->scramble,
              [&](TaglessLine &slot) { last = &slot; });
    if (!last) {
        md->li[line_idx] = new_loc;
    } else if (!last->master) {
        // A local master has nothing to repoint. (That happens when the
        // notification races with a local copy that was promoted; with
        // atomic transactions it should not occur.)
        last->rp = new_loc;
    }
}

bool
D2mSystem::invalidateLineAtNode(NodeId n, std::uint64_t pregion,
                                unsigned line_idx, Addr line_addr,
                                const LocationInfo &new_master)
{
    obs::ProfScope prof(obs::ProfSite::Invalidate);
    ++stats_.invalidationsReceived;
    Md2Entry *md = md2For(n, pregion);
    panic_if(!md, "Inv for an untracked region");
    const DropResult dropped = dropLocalCopies(n, *md, line_idx, line_addr);
    panic_if(dropped.droppedMaster,
             "invalidation reached the master copy; the exclusive fetch "
             "should have consumed it");
    md->li[line_idx] = new_master;
    if (!dropped.droppedAny)
        ++stats_.falseInvalidations;
    return dropped.droppedAny;
}

void
D2mSystem::maybePrune(NodeId n, std::uint64_t pregion, Md3Entry &e3)
{
    if (!params_.md2Pruning)
        return;
    Md2Entry *e2 = nodes_[n].md2->probe(pregion);
    if (!e2 || e2->activeInMd1)
        return;  // MD1 active: keep (paper's heuristic condition)
    for (unsigned i = 0; i < params_.regionLines; ++i) {
        if (liIsLocal(n, e2->li[i], regionLine(pregion, i), e2->scramble))
            return;  // still holds local copies
    }
    // Drop the entry and notify MD3 so the PB bit clears.
    ++events_.md2Prunes;
    obs::protoEvent(obs::ProtoEvent::Md2Prune, n, pregion);
    e2->valid = false;
    noc_.send(n, farSide(), MsgType::PruneNotify);
    e3.pb &= ~(std::uint64_t(1) << n);
}

void
D2mSystem::masterEvicted(NodeId node, TaglessLine &line)
{
    const Addr line_addr = line.lineAddr;
    const std::uint64_t pregion = regionOf(line_addr);
    const unsigned idx = lineIdxOf(line_addr);
    Md2Entry *md = md2For(node, pregion, /*charge=*/false);
    panic_if(!md, "master eviction in an untracked region");

    // Case E/F: relocate the master to its victim location.
    const LocationInfo new_loc =
        allocateVictimInLlc(node, line_addr, md->scramble);
    TaglessCache &slice = *llc_[new_loc.node];
    slice.install(slice.setFor(line_addr, md->scramble), new_loc.way,
                  {.valid = true,
                   .lineAddr = line_addr,
                   .value = line.value,
                   .dirty = line.dirty,
                   .master = true});
    energy_.count(Structure::LlcData);
    noc_.send(node, sliceEndpoint(new_loc.node), MsgType::WritebackData);

    if (md->privateBit) {
        // Case E: private region, local metadata update only.
        ++events_.e;
        obs::protoEvent(obs::ProtoEvent::CaseE, node, line_addr);
        md->li[idx] = new_loc;
    } else {
        // Case F: shared region, blocking EvictReq through MD3.
        ++events_.f;
        obs::protoEvent(obs::ProtoEvent::CaseF, node, line_addr);
        noc_.send(node, farSide(), MsgType::EvictReq);
        energy_.count(Structure::Md3);
        lockRegion(pregion);
        Md3Entry *e3 = md3_->probe(pregion);
        panic_if(!e3, "shared region missing from MD3");
        for (NodeId p = 0; p < params_.numNodes; ++p) {
            if (p == node || !((e3->pb >> p) & 1))
                continue;
            noc_.send(farSide(), p, MsgType::NewMaster);
            newMasterAtNode(p, pregion, idx, line_addr, new_loc);
        }
        md->li[idx] = new_loc;
        e3->li[idx] = new_loc;
        noc_.send(node, farSide(), MsgType::Done);
    }
}

void
D2mSystem::evictLocal(NodeId node, bool in_l1, TaglessLine &line)
{
    if (!line.valid)
        return;
    const unsigned idx = lineIdxOf(line.lineAddr);
    // Following the line's TP to the region's metadata costs an MD2
    // access, plus an MD1 access when the region is cached there
    // (Section III-B example).
    Md2Entry *md = md2For(node, regionOf(line.lineAddr));
    panic_if(!md, "local line in an untracked region");

    if (!line.master && !line.rp.isMem()) {
        // Replicated lines replace silently; the LI falls back to the
        // RP (the master location, or a local NS replica).
        md->li[idx] = line.rp;
    } else if (line.master && in_l1 && nodes_[node].l2) {
        // A private L2 absorbs L1 master victims: a purely local move
        // (remote nodes track masters by NodeID only).
        TaglessCache &l2 = *nodes_[node].l2;
        const std::uint32_t set = l2.setFor(line.lineAddr, md->scramble);
        const std::uint32_t way = l2.victimWay(set);
        evictLocal(node, /*in_l1=*/false, l2.at(set, way));
        l2.install(set, way, line);
        energy_.count(Structure::L2Data);
        md->li[idx] = LocationInfo::inL2(way);
    } else {
        // Masters, and the only cached copy of a memory-mastered line:
        // give it a victim location instead of dropping it, becoming
        // the new master (the paper allocates victim locations for L1
        // cachelines too, Section III-B). Shared regions serialize the
        // master change through MD3 (case F); a racing sharer sees its
        // RP repointed and drops silently later.
        masterEvicted(node, line);
    }
    line.invalidate();
}

void
D2mSystem::nodeRegionEvict(NodeId node, std::uint64_t pregion)
{
    obs::ProfScope prof(obs::ProfSite::RegionEvict);
    ++events_.md2Spills;
    obs::protoEvent(obs::ProtoEvent::Md2Spill, node, pregion);
    Md2Entry *md = md2For(node, pregion, /*charge=*/false);
    panic_if(!md, "evicting an untracked region");

    // Flush every local copy the region tracks (metadata inclusion).
    // Each eviction rewrites the LI, so it is re-read after every step.
    for (unsigned idx = 0; idx < params_.regionLines; ++idx) {
        const Addr la = regionLine(pregion, idx);
        for (LocationInfo li = md->li[idx];
             liIsLocal(node, li, la, md->scramble); li = md->li[idx]) {
            TaglessLine &slot = slotAt(node, md->md1SideI, li, la, md->scramble);
            if (li.kind == LiKind::Llc) {
                // Own-slice replica: drop it, LI falls back to its RP.
                md->li[idx] = slot.rp;
                slot.invalidate();
            } else {
                evictLocal(node, li.kind == LiKind::L1, slot);
            }
        }
    }

    // Spill: hand the final LIs back to MD3 and clear the PB bit.
    noc_.send(node, farSide(), MsgType::MD2Spill);
    energy_.count(Structure::Md3);
    Md3Entry *e3 = md3_->probe(pregion);
    panic_if(!e3, "MD3 inclusion violated on spill");
    if (md->privateBit) {
        // Private regions carried authoritative LIs only in the node.
        e3->li = md->li;
        for (auto &li : e3->li) {
            panic_if(li.isLocalCache(),
                     "local LI survived the region flush");
        }
    }
    e3->pb &= ~(std::uint64_t(1) << node);

    if (md->activeInMd1)
        trackedMd1(node, *md).valid = false;
    md->valid = false;
}

void
D2mSystem::flushNodeRegion(NodeId node, std::uint64_t pregion)
{
    Md2Entry *md = md2For(node, pregion, /*charge=*/false);
    if (!md)
        return;
    for (unsigned idx = 0; idx < params_.regionLines; ++idx) {
        const Addr la = regionLine(pregion, idx);
        // Drop the local chain; dirty masters go straight to memory.
        const DropResult dropped = dropLocalCopies(node, *md, idx, la);
        if (dropped.droppedMaster && dropped.masterDirty) {
            memory_.write(la, dropped.masterValue);
            noc_.send(node, farSide(), MsgType::WritebackData);
        }
        // Private regions may track LLC masters only through the
        // owner's LIs: flush those too (the region is dying).
        if (md->privateBit && md->li[idx].kind == LiKind::Llc) {
            dropLlcLine(md->li[idx], la, md->scramble);
            md->li[idx] = LocationInfo::mem();
        }
    }
    if (md->activeInMd1)
        trackedMd1(node, *md).valid = false;
    md->valid = false;
}

void
D2mSystem::globalMd3Evict(Md3Entry &e3)
{
    ++events_.md3Evictions;
    const std::uint64_t pregion = e3.key;
    obs::protoEvent(obs::ProtoEvent::Md3Evict, farSide(), pregion);

    // First flush every tracking node (drops replicas and private
    // masters; dirty data goes straight to memory)...
    for (NodeId p = 0; p < params_.numNodes; ++p) {
        if (!((e3.pb >> p) & 1))
            continue;
        noc_.send(farSide(), p, MsgType::RegionFlush);
        flushNodeRegion(p, pregion);
        noc_.send(p, farSide(), MsgType::FlushAck);
    }
    // ...then the LLC lines MD3 itself tracks (shared/untracked).
    for (unsigned idx = 0; idx < params_.regionLines; ++idx) {
        if (e3.li[idx].kind == LiKind::Llc)
            dropLlcLine(e3.li[idx], regionLine(pregion, idx), e3.scramble);
    }
    e3.valid = false;
}

void
D2mSystem::dropLlcLine(const LocationInfo &li, Addr line_addr,
                       std::uint32_t scramble)
{
    TaglessLine &slot =
        slotAt(invalidNode, /*side_i=*/false, li, line_addr, scramble);
    if (!slot.valid || slot.lineAddr != line_addr)
        return;
    if (slot.dirty) {
        memory_.write(line_addr, slot.value);
        noc_.send(sliceEndpoint(li.node), farSide(), MsgType::MemWrite);
    }
    slot.invalidate();
}

// ===================================================================
// Data service
// ===================================================================

std::uint64_t
D2mSystem::fetchFromMaster(NodeId node, const LocationInfo &master,
                           std::uint32_t scramble, Addr line_addr,
                           bool invalidate_master, Cycles &lat,
                           ServiceLevel &level, bool &was_mru)
{
    obs::ProfScope prof(obs::ProfSite::FetchMaster);
    was_mru = false;
    // One LI hop per master indirection: the requester follows its
    // location info straight to the holder (no tag probes on the way).
    obs::traceEvent(obs::TraceKind::LiHop, node, line_addr,
                    static_cast<std::uint64_t>(master.kind), master.node);
    ++curLiHops_;
    switch (master.kind) {
      case LiKind::Llc: {
        const std::uint32_t slice = master.node;
        const std::uint32_t ep = sliceEndpoint(slice);
        lat += noc_.send(node, ep, MsgType::ReadReq);
        // The region's scramble governs LLC indexing. Every tracker
        // copies it from MD3 (case D) and an MD3 eviction flushes them
        // all, so the requester's copy is MD3's.
        const std::uint32_t set = llc_[slice]->setFor(line_addr, scramble);
        TaglessLine &slot = llc_[slice]->at(set, master.way);
        panic_if(!slot.valid || slot.lineAddr != line_addr,
                 "deterministic LI violated at LLC: line 0x%llx wanted at "
                 "slice %u set %u way %u; slot valid=%d holds 0x%llx "
                 "master=%d owner=%u; requester node %u, region 0x%llx, "
                 "class %d, scramble %u",
                 static_cast<unsigned long long>(line_addr), slice, set,
                 master.way, slot.valid,
                 static_cast<unsigned long long>(slot.lineAddr),
                 slot.master, slot.ownerNode, node,
                 static_cast<unsigned long long>(regionOf(line_addr)),
                 static_cast<int>(regionClass(regionOf(line_addr))),
                 scramble);
        energy_.count(Structure::LlcData);
        lat += params_.lat.llc;
        was_mru = llc_[slice]->isMru(set, master.way);
        llc_[slice]->touch(set, master.way);
        const std::uint64_t value = slot.value;
        level = (nearSide_ && slice == node) ? ServiceLevel::LLC_NEAR
                                             : ServiceLevel::LLC_FAR;
        if (level == ServiceLevel::LLC_NEAR)
            ++events_.llcAccessesLocal;
        else
            ++events_.llcAccessesRemote;
        if (invalidate_master) {
            panic_if(!slot.master,
                     "exclusive fetch hit a non-master LLC line");
            slot.invalidate();
        }
        lat += noc_.send(ep, node, MsgType::DataResp);
        return value;
      }
      case LiKind::Mem: {
        obs::ProfScope mem_prof(obs::ProfSite::Memory);
        lat += noc_.send(node, farSide(), MsgType::ReadReq);
        lat += params_.lat.dram;
        ++stats_.dramAccesses;
        const std::uint64_t value = memory_.read(line_addr);
        level = ServiceLevel::MEMORY;
        lat += noc_.send(farSide(), node, MsgType::DataResp);
        return value;
      }
      case LiKind::Node: {
        const NodeId r = master.node;
        panic_if(r == node, "fetchFromMaster pointed at the requester");
        lat += noc_.send(node, r, MsgType::ReadReq);
        // The remote master performs its own MD lookup to locate the
        // line (Section III-A).
        Md2Entry *md_r = md2For(r, regionOf(line_addr));
        panic_if(!md_r, "master node lost the region");
        lat += params_.lat.md2;
        const unsigned idx = lineIdxOf(line_addr);
        const std::uint64_t value =
            readLocalValue(r, *md_r, idx, line_addr, lat);
        if (invalidate_master) {
            dropLocalCopies(r, *md_r, idx, line_addr);
            md_r->li[idx] = LocationInfo::inNode(node);
        } else {
            // The requester installs a replica: the remote master
            // loses exclusivity (M/E -> O/F).
            walkLocal(r, md_r->md1SideI, md_r->li[idx], line_addr,
                      md_r->scramble, [](TaglessLine &slot) {
                          if (slot.master)
                              slot.exclusive = false;
                      });
        }
        level = ServiceLevel::REMOTE;
        lat += noc_.send(r, node, MsgType::DataResp);
        return value;
      }
      default:
        panic("fetchFromMaster on LI kind %d",
              static_cast<int>(master.kind));
    }
}

std::uint64_t
D2mSystem::caseC(NodeId node, Md2Entry &md, Addr line_addr, Cycles &lat)
{
    obs::ProfScope prof(obs::ProfSite::CohUpgrade);
    ++events_.c;
    ++stats_.dirIndirections;
    const std::uint64_t pregion = md.key;
    const unsigned idx = lineIdxOf(line_addr);
    obs::traceEvent(obs::TraceKind::CohUpgrade, node, line_addr,
                    /*proto_case=*/'C');

    lat += noc_.send(node, farSide(), MsgType::ReadExReq);
    energy_.count(Structure::Md3);
    lat += params_.lat.md3;
    lockRegion(pregion);

    Md3Entry *e3 = md3_->probe(pregion);
    panic_if(!e3, "case C on a region absent from MD3");
    const LocationInfo master = e3->li[idx];

    std::uint64_t value = 0;
    Cycles fetch_lat = 0;
    NodeId master_node = invalidNode;
    if (master.kind == LiKind::Node && master.node == node) {
        // The requester already holds the master locally.
        value = readLocalValue(node, md, idx, line_addr, fetch_lat);
    } else {
        ServiceLevel lvl;
        bool mru = false;
        value = fetchFromMaster(node, master, md.scramble, line_addr,
                                /*invalidate_master=*/master.kind !=
                                    LiKind::Mem,
                                fetch_lat, lvl, mru);
        if (master.kind == LiKind::Node)
            master_node = master.node;
    }

    // Invalidate the other sharers (multicast steered by the PB bits).
    Cycles inv_lat = 0;
    const std::uint64_t pb_snapshot = e3->pb;
    for (NodeId p = 0; p < params_.numNodes; ++p) {
        if (p == node || p == master_node || !((pb_snapshot >> p) & 1))
            continue;
        noc_.send(farSide(), p, MsgType::Inv);
        obs::traceEvent(obs::TraceKind::CohDowngrade, p, line_addr,
                        /*false_inv=*/0);
        invalidateLineAtNode(p, pregion, idx, line_addr,
                             LocationInfo::inNode(node));
        noc_.send(p, node, MsgType::InvAck);
        inv_lat = 2 * params_.lat.nocHop;
        maybePrune(p, pregion, *e3);
    }

    lat += std::max(fetch_lat, inv_lat);
    e3->li[idx] = LocationInfo::inNode(node);
    noc_.send(node, farSide(), MsgType::Done);

    // Pruning may have stripped the region back to a single sharer.
    if (classify(true, e3->pb) == RegionClass::Private) {
        ++events_.sharedToPrivate;
        obs::traceEvent(obs::TraceKind::RegionClass, node, pregion,
                        /*shared=*/0, /*was_shared=*/1);
        md.privateBit = true;
        for (auto &li : e3->li)
            li = LocationInfo::invalid();
    }
    return value;
}

LocationInfo
D2mSystem::replicateToLocalSlice(NodeId node, Addr line_addr,
                                 std::uint32_t scramble,
                                 std::uint64_t value,
                                 const LocationInfo &master, bool is_ifetch)
{
    TaglessCache &arr = *llc_[node];
    const std::uint32_t set = arr.setFor(line_addr, scramble);
    const std::uint32_t way = arr.victimWay(set);
    evictLlcSlot(node, set, way);
    arr.install(set, way,
                {.valid = true,
                 .lineAddr = line_addr,
                 .value = value,
                 .rp = master,
                 .ownerNode = node});
    energy_.count(Structure::LlcData);
    placement_.recordReplacement(node);
    if (is_ifetch)
        ++events_.replicationsInst;
    else
        ++events_.replicationsData;
    obs::protoEvent(obs::ProtoEvent::Replicate, node, line_addr);
    return LocationInfo::inLlc(node, way);
}

std::uint32_t
D2mSystem::installL1(NodeId node, bool side_i, Addr line_addr,
                     std::uint32_t scramble, std::uint64_t value,
                     bool master, bool dirty, const LocationInfo &rp,
                     bool exclusive)
{
    TaglessCache &l1 = l1For(node, side_i);
    const std::uint32_t set = l1.setFor(line_addr, scramble);
    const std::uint32_t way = l1.victimWay(set);
    evictLocal(node, /*in_l1=*/true, l1.at(set, way));
    l1.install(set, way,
               {.valid = true,
                .lineAddr = line_addr,
                .value = value,
                .dirty = dirty,
                .master = master,
                .exclusive = master && exclusive,
                .rp = rp});
    energy_.count(Structure::L1Data);
    return way;
}

void
D2mSystem::pressureEpoch(Tick now)
{
    if (!nearSide_ || now < nextPressureEpoch_)
        return;
    obs::protoEvent(obs::ProtoEvent::PressureEpoch, farSide(), 0);
    placement_.exchangeEpoch();
    for (NodeId a = 0; a < params_.numNodes; ++a)
        noc_.multicast(a, ~std::uint64_t(0), MsgType::PressureUpdate);
    nextPressureEpoch_ = now + params_.nsPressurePeriod;
}

AccessResult
D2mSystem::access(NodeId node, const MemAccess &acc, Tick now)
{
    obs::ProfScope prof(obs::ProfSite::MemAccess);
    pressureEpoch(now);

    ++stats_.accesses;
    switch (acc.type) {
      case AccessType::IFETCH: ++stats_.ifetches; break;
      case AccessType::LOAD: ++stats_.loads; break;
      case AccessType::STORE: ++stats_.stores; break;
    }

    const bool side_i = isIFetch(acc.type);
    Cycles lat = params_.lat.l1Hit;
    unsigned md_level = 0;
    Md2Entry &md = lookupMetadata(node, acc, side_i, lat, md_level);

    const Addr paddr =
        (md.key << regionShift_) |
        (acc.vaddr & ((Addr(1) << regionShift_) - 1));
    const Addr line_addr = lineOf(paddr);

    curLiHops_ = 0;
    const AccessResult res =
        serviceLine(node, acc, side_i, md, line_addr, md_level, lat);
    stats_.accessLatency.sample(res.latency);
    return res;
}

AccessResult
D2mSystem::serviceLine(NodeId node, const MemAccess &acc, bool side_i,
                       Md2Entry &md, Addr line_addr, unsigned md_level,
                       Cycles lat)
{
    obs::ProfScope prof(obs::ProfSite::ServiceLine);
    const unsigned idx = lineIdxOf(line_addr);
    const bool store = isWrite(acc.type);
    AccessResult res;

    LocationInfo li = md.li[idx];
    panic_if(li.isInvalid(), "invalid LI in a node's metadata");

    // ---- L1 hit ----------------------------------------------------
    if (li.kind == LiKind::L1) [[likely]] {
        TaglessCache &l1 = l1For(node, side_i);
        const std::uint32_t set = l1.setFor(line_addr, md.scramble);
        TaglessLine &slot = l1.at(set, li.way);
        panic_if(!slot.valid || slot.lineAddr != line_addr,
                 "deterministic LI violated at L1");
        energy_.count(Structure::L1Data);
        l1.touch(set, li.way);
        if (store) {
            if (slot.master && (md.privateBit || slot.exclusive)) {
                // Silent upgrade: private regions never need
                // coherence, and an exclusive (M/E) master has no
                // replicas to invalidate.
                slot.value = acc.storeValue;
                slot.dirty = true;
            } else if (slot.master) {
                // Local master in O/F flavor: replicas may exist in
                // other nodes; invalidate them through MD3 (case C).
                caseC(node, md, line_addr, lat);
                slot.value = acc.storeValue;
                slot.dirty = true;
                slot.exclusive = true;
            } else {
                // Replica: obtain exclusivity, then become master.
                const auto drop_replica = [](TaglessLine &rep) {
                    rep.invalidate();
                };
                if (md.privateBit) {
                    // Private region: consume the master directly
                    // (case B, hit flavor).
                    ++events_.b;
                    ++events_.directAccesses;
                    obs::traceEvent(obs::TraceKind::CohUpgrade, node,
                                    line_addr, /*proto_case=*/'B');
                    // Chained local NS replica? Drop it first.
                    const LocationInfo m =
                        walkLocal(node, side_i, slot.rp, line_addr,
                                  md.scramble, drop_replica);
                    if (m.kind == LiKind::Llc) {
                        ServiceLevel lvl;
                        bool mru;
                        Cycles flat = 0;
                        fetchFromMaster(node, m, md.scramble, line_addr,
                                        /*invalidate=*/true, flat, lvl,
                                        mru);
                        lat += flat;
                    }
                    // m == Mem: the master is memory; nothing cached to
                    // consume.
                } else {
                    caseC(node, md, line_addr, lat);
                    // Drop a chained local NS replica (now stale).
                    walkLocal(node, side_i, slot.rp, line_addr,
                              md.scramble, drop_replica);
                }
                slot.master = true;
                slot.exclusive = true;
                slot.dirty = true;
                slot.value = acc.storeValue;
                slot.rp = LocationInfo::mem();
            }
            res.loadValue = slot.value;
        } else {
            res.loadValue = slot.value;
        }
        res.latency = lat;
        res.level = ServiceLevel::L1;
        events_.sampleCoverage(md_level, 0);
        return res;
    }

    // ---- L1 miss ---------------------------------------------------
    res.l1Miss = true;
    if (side_i) {
        ++stats_.l1iMisses;
        ++stats_.beyondL1I;
    } else {
        ++stats_.l1dMisses;
        ++stats_.beyondL1D;
    }
    if (md.privateBit)
        ++stats_.missesToPrivate;

    std::uint64_t value = 0;
    ServiceLevel level = ServiceLevel::MEMORY;

    if (!store) {
        // ---- Case A: direct read from the master -------------------
        if (md_level == 0)
            ++events_.aMd1;
        else if (md_level == 1)
            ++events_.aMd2;
        if (md_level < 2)
            ++events_.directAccesses;

        bool was_mru = false;
        bool install_master = false;
        bool install_dirty = false;
        LocationInfo rp_for_l1 = li;
        bool defer_rp = false;  //!< Re-derive RP after install evictions.

        if (li.kind == LiKind::L2) {
            // Local move L2 -> L1: no metadata coherence required.
            TaglessLine &slot =
                slotAt(node, side_i, li, line_addr, md.scramble);
            panic_if(!slot.valid || slot.lineAddr != line_addr,
                     "deterministic LI violated at L2");
            energy_.count(Structure::L2Data);
            lat += params_.lat.l2;
            value = slot.value;
            install_master = slot.master;
            install_dirty = slot.dirty;
            rp_for_l1 = slot.rp;
            slot.invalidate();
            level = ServiceLevel::L2;
            if (side_i)
                ++stats_.nearHitsI;
            else
                ++stats_.nearHitsD;
        } else {
            value = fetchFromMaster(node, li, md.scramble, line_addr,
                                    /*invalidate=*/false, lat, level,
                                    was_mru);
            switch (li.kind) {
              case LiKind::Llc: ++events_.aMasterLlc; break;
              case LiKind::Mem: ++events_.aMasterMem; break;
              case LiKind::Node: ++events_.aMasterRemote; break;
              default: break;
            }
            if (li.kind == LiKind::Mem && md.privateBit) {
                // Sole user: the fetched copy becomes the master.
                install_master = true;
                rp_for_l1 = LocationInfo::mem();
            } else {
                // Replica of a master that stays put (Appendix A: "the
                // global master location stays unchanged"). The RP is
                // derived after install: the install's own eviction
                // cascade can relocate the master (updating our LI),
                // and a pre-computed RP would go stale.
                defer_rp = true;
                rp_for_l1 = LocationInfo::mem();
            }
            if (level == ServiceLevel::LLC_NEAR) {
                if (side_i)
                    ++stats_.nearHitsI;
                else
                    ++stats_.nearHitsD;
            }
        }
        const std::uint32_t way =
            installL1(node, side_i, line_addr, md.scramble, value,
                      install_master, install_dirty, rp_for_l1,
                      /*exclusive=*/install_master);
        if (defer_rp) {
            // The LI still names the master (possibly moved by the
            // eviction cascade above, which repaired it in place).
            LocationInfo master_now = md.li[idx];
            panic_if(master_now.kind == LiKind::L1 ||
                         master_now.kind == LiKind::L2,
                     "master LI unexpectedly local after install");
            const bool already_local_slice =
                nearSide_ && master_now.kind == LiKind::Llc &&
                master_now.node == node;
            LocationInfo rp = master_now;
            if (nearSide_ && params_.replication && !md.privateBit &&
                !already_local_slice &&
                shouldReplicate(
                    side_i,
                    master_now.kind == LiKind::Llc &&
                        master_now.node != node,
                    was_mru)) {
                rp = replicateToLocalSlice(node, line_addr, md.scramble,
                                           value, master_now, side_i);
            }
            slotAt(node, side_i, LocationInfo::inL1(way), line_addr,
                   md.scramble).rp = rp;
        }
        md.li[idx] = LocationInfo::inL1(way);
    } else {
        // ---- Store miss: case B (private) or case C (shared) -------
        if (md.privateBit) {
            ++events_.b;
            if (md_level < 2)
                ++events_.directAccesses;
            obs::traceEvent(obs::TraceKind::CohUpgrade, node, line_addr,
                            /*proto_case=*/'B');
            const DropResult dropped =
                dropLocalCopies(node, md, idx, line_addr);
            const LocationInfo master = md.li[idx];
            if (dropped.droppedMaster) {
                value = dropped.masterValue;
                level = ServiceLevel::L2;
                lat += params_.lat.l2;
            } else if (master.kind == LiKind::Llc ||
                       master.kind == LiKind::Mem) {
                bool mru = false;
                value = fetchFromMaster(node, master, md.scramble, line_addr,
                                        master.kind == LiKind::Llc, lat,
                                        level, mru);
            } else {
                panic("private region master in kind %d",
                      static_cast<int>(master.kind));
            }
        } else {
            value = caseC(node, md, line_addr, lat);
            dropLocalCopies(node, md, idx, line_addr);
            level = ServiceLevel::LLC_FAR;
        }
        const std::uint32_t way =
            installL1(node, side_i, line_addr, md.scramble,
                      acc.storeValue, /*master=*/true, /*dirty=*/true,
                      LocationInfo::mem(), /*exclusive=*/true);
        md.li[idx] = LocationInfo::inL1(way);
        value = acc.storeValue;
    }

    stats_.missLatencyTotal += lat;
    stats_.missLatency.sample(lat);
    events_.liHopsPerMiss.sample(curLiHops_);
    events_.sampleCoverage(md_level, dataLevelIndex(level));
    res.latency = lat;
    res.level = level;
    res.loadValue = value;
    return res;
}

// ===================================================================
// Invariants / accounting
// ===================================================================

double
D2mSystem::sramKib() const
{
    return params_.totalSramKib(/*is_d2m=*/true, /*has_directory=*/false);
}

} // namespace d2m

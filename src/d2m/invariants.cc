/**
 * @file
 * D2M invariant checker (DESIGN.md Section 6).
 *
 * Verifies, over the complete simulator state:
 *  1. Deterministic LI: every LI in a node's MD2 or in MD3 resolves
 *     to a valid slot holding the right line (or a non-cache location).
 *  2. Tracking completeness: every valid data slot is reachable from
 *     some metadata entry's LI chain.
 *  3. Single master per line across all arrays.
 *  4. PB soundness: MD3 PB[n] set <=> node n has a valid MD2 entry.
 *  5. Private exclusivity: a region private in a node has exactly that
 *     node's PB bit set.
 *  6. Inclusion: every MD1 entry and the MD2 entry it points to name
 *     each other; MD2 regions and LLC lines present in MD3.
 *  7. LI code (paper Table I): every stored LI — MD2's, MD3's and the
 *     RP of every valid data slot — comes back unchanged from the
 *     6-bit code, so the hardware's pointer could hold it.
 *
 * All violations are collected (up to a reporting cap), not just the
 * first, so one check of a badly corrupted state names every broken
 * invariant at once.
 */

#include <map>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "d2m/d2m_system.hh"

namespace d2m
{

bool
D2mSystem::checkInvariants(std::string &why) const
{
    std::ostringstream oss;
    unsigned violations = 0;
    constexpr unsigned max_reported = 16;
    auto fail = [&](const std::string &msg) {
        if (violations < max_reported) {
            if (violations)
                oss << "; ";
            oss << msg;
        }
        ++violations;
    };
    const auto encodable = [&](const LocationInfo &li) {
        return codec_.decode(codec_.encode(li)) == li;
    };

    // --- master uniqueness and encodable RPs over all data arrays -----
    std::map<Addr, unsigned> masters;
    const auto checkSlot = [&](const TaglessLine &line) {
        if (line.master)
            ++masters[line.lineAddr];
        if (!encodable(line.rp)) {
            fail("RP not encodable in the 6-bit LI code: line " +
                 std::to_string(line.lineAddr));
        }
    };
    for (NodeId n = 0; n < params_.numNodes; ++n) {
        for (const TaglessCache *cache :
             {nodes_[n].l1i.get(), nodes_[n].l1d.get(),
              nodes_[n].l2.get()}) {
            if (!cache)
                continue;
            cache->forEachValid([&](std::uint32_t, std::uint32_t,
                                    const TaglessLine &line) {
                checkSlot(line);
            });
        }
    }
    for (const auto &slice : llc_) {
        slice->forEachValid([&](std::uint32_t, std::uint32_t,
                                const TaglessLine &line) {
            checkSlot(line);
        });
    }
    for (const auto &[addr, count] : masters) {
        if (count > 1) {
            fail("line 0x" + std::to_string(addr) + " has " +
                 std::to_string(count) + " masters");
        }
    }

    // Every slot an LI chain resolves to; compared against the full
    // slot population afterwards (tracking completeness).
    std::set<const TaglessLine *> reached;

    // --- per-node metadata checks -------------------------------------
    for (NodeId n = 0; n < params_.numNodes; ++n) {
        const NodeCtx &ctx = nodes_[n];

        // MD1 subset of MD2: each MD1 entry's pointer names a valid
        // MD2 entry whose tracking pointer names that MD1 slot back.
        for (const auto *md1 : {ctx.md1i.get(), ctx.md1d.get()}) {
            md1->forEach([&](const Md1Entry &e1) {
                if (!linked(n, e1, md2Of(n, e1))) {
                    fail("node " + std::to_string(n) +
                         ": MD1 entry's MD2 pointer names an entry that "
                         "does not track it back");
                }
            });
        }

        // Every MD2 entry: PB bit set in MD3; LIs deterministic.
        ctx.md2->forEach([&](const Md2Entry &e2) {
            const Md3Entry *e3 = md3_->probe(e2.key);
            if (!e3 || !((e3->pb >> n) & 1)) {
                fail("node " + std::to_string(n) + " region " +
                     std::to_string(e2.key) +
                     ": MD2 entry without MD3 PB bit");
                return;
            }
            if (e2.activeInMd1 && !linked(n, trackedMd1(n, e2), e2)) {
                fail("node " + std::to_string(n) +
                     ": MD2 tracking pointer names an MD1 entry that "
                     "does not point back");
            }
            if (e2.privateBit && popCountU64(e3->pb) != 1)
                fail("private region with multiple PB bits");
            for (unsigned i = 0; i < params_.regionLines; ++i) {
                const Addr la = regionLine(e2.key, i);
                LocationInfo li = e2.li[i];
                if (!encodable(li)) {
                    fail("MD2 LI not encodable in the 6-bit LI code: "
                         "node " + std::to_string(n) + " line " +
                         std::to_string(la));
                    continue;
                }
                if (li.isInvalid()) {
                    fail("invalid LI in node metadata");
                    continue;
                }
                // Walk the chain like walkLocal(), but report a broken
                // link instead of panicking, and also check the LLC
                // master the chain ends at.
                unsigned guard = 0;
                while (guard++ < 8) {
                    if (li.kind == LiKind::L2 && !ctx.l2) {
                        fail("L2 LI without an L2 cache");
                        break;
                    }
                    if (!li.isLocalCache() && li.kind != LiKind::Llc)
                        break;  // Mem / Node: nothing to resolve here
                    const TaglessLine *slot =
                        &slotAt(n, e2.md1SideI, li, la, e2.scramble);
                    if (!slot->valid || slot->lineAddr != la) {
                        fail("deterministic LI violated: node " +
                             std::to_string(n) + " line " +
                             std::to_string(la));
                        break;
                    }
                    reached.insert(slot);
                    if (slot->master)
                        break;
                    li = slot->rp;
                    if (li.isInvalid()) {
                        fail("replica RP invalid");
                        break;
                    }
                    if (!encodable(li))
                        break;  // reported with the slot's RP above
                }
            }
        });

        // PB reverse direction: PB bit implies MD2 entry.
        md3_->forEach([&](const Md3Entry &e3) {
            if (((e3.pb >> n) & 1) && !ctx.md2->probe(e3.key))
                fail("PB bit set for node without MD2 entry");
        });

        // Region-level tracking for private caches.
        for (const TaglessCache *cache :
             {ctx.l1i.get(), ctx.l1d.get(), ctx.l2.get()}) {
            if (!cache)
                continue;
            cache->forEachValid([&](std::uint32_t, std::uint32_t,
                                    const TaglessLine &line) {
                if (!ctx.md2->probe(regionOf(line.lineAddr))) {
                    fail("cached line in node " + std::to_string(n) +
                         " not tracked by its MD2");
                }
            });
        }
    }

    // --- LLC lines tracked by MD3 -------------------------------------
    for (const auto &slice : llc_) {
        slice->forEachValid([&](std::uint32_t, std::uint32_t,
                                const TaglessLine &line) {
            const Md3Entry *e3 = md3_->probe(regionOf(line.lineAddr));
            if (!e3)
                fail("LLC line without an MD3 entry");
            if (!line.master && line.ownerNode == invalidNode)
                fail("LLC replica without an owner");
        });
    }

    // --- MD3 LIs encodable; deterministic for shared/untracked -------
    md3_->forEach([&](const Md3Entry &e3) {
        const bool priv = classify(true, e3.pb) == RegionClass::Private;
        for (unsigned i = 0; i < params_.regionLines; ++i) {
            const LocationInfo li = e3.li[i];
            const Addr la = regionLine(e3.key, i);
            if (!encodable(li)) {
                fail("MD3 LI not encodable in the 6-bit LI code: line " +
                     std::to_string(la));
                continue;
            }
            // A private region's LIs are invalid by design.
            if (priv || li.kind != LiKind::Llc)
                continue;
            const TaglessLine &slot =
                slotAt(invalidNode, /*side_i=*/false, li, la, e3.scramble);
            if (!slot.valid || slot.lineAddr != la || !slot.master)
                fail("MD3 LI does not resolve to an LLC master");
            else
                reached.insert(&slot);
        }
    });

    // --- tracking completeness ----------------------------------------
    // Every valid slot in the whole hierarchy must have been resolved
    // by some LI chain above: a slot no metadata reaches is leaked
    // capacity that can never be found, hit or evicted coherently.
    const auto checkReached = [&](const TaglessCache &cache,
                                  const std::string &where) {
        cache.forEachValid([&](std::uint32_t, std::uint32_t,
                               const TaglessLine &line) {
            if (!reached.count(&line)) {
                fail("slot in " + where + " holding line 0x" +
                     std::to_string(line.lineAddr) +
                     " unreachable from any metadata LI");
            }
        });
    };
    for (NodeId n = 0; n < params_.numNodes; ++n) {
        const NodeCtx &ctx = nodes_[n];
        const std::string node = "node " + std::to_string(n);
        checkReached(*ctx.l1i, node + " L1I");
        checkReached(*ctx.l1d, node + " L1D");
        if (ctx.l2)
            checkReached(*ctx.l2, node + " L2");
    }
    for (std::uint32_t s = 0; s < llc_.size(); ++s) {
        checkReached(*llc_[s],
                     "LLC slice " + std::to_string(s));
    }

    if (violations > max_reported) {
        oss << "; ... (" << violations << " violations total, first "
            << max_reported << " shown)";
    }
    if (violations)
        why = oss.str();
    return violations == 0;
}

} // namespace d2m

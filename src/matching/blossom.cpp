#include "matching/blossom.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "matching/error.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"

namespace sic::matching {

namespace {

/// The primal-dual weighted blossom matcher. One instance solves one
/// problem; all state lives in flat arrays indexed by vertex (0..n-1) or
/// blossom id (0..2n-1; ids >= n are non-trivial blossoms).
class BlossomMatcher {
 public:
  struct Edge {
    int i;
    int j;
    std::int64_t w;
  };

  /// Work counters accumulated as plain integers on the hot path and
  /// published in one batch by solve_timed (obs batch idiom).
  /// edge_visits counts the stage scans' adjacency reads only.
  struct SolveStats {
    std::uint64_t stages = 0;
    std::uint64_t augmentations = 0;
    std::uint64_t edge_visits = 0;
    std::uint64_t blossoms_formed = 0;
  };

  BlossomMatcher(int nvertex, std::vector<Edge> edges, bool max_cardinality)
      : nv_(nvertex), edges_(std::move(edges)), maxcard_(max_cardinality) {
    const int ne = static_cast<int>(edges_.size());
    std::int64_t maxweight = 0;
    for (const auto& e : edges_) {
      SIC_CHECK(e.i >= 0 && e.i < nv_ && e.j >= 0 && e.j < nv_ && e.i != e.j);
      maxweight = std::max(maxweight, e.w);
    }
    endpoint_.resize(2 * ne);
    for (int k = 0; k < ne; ++k) {
      endpoint_[2 * k] = edges_[k].i;
      endpoint_[2 * k + 1] = edges_[k].j;
    }
    // CSR adjacency in edge order: count degrees into adj_start_[v + 1],
    // prefix-sum, fill using adj_start_[v] as v's cursor (which leaves it at
    // v's end), then shift the starts back into place.
    adj_start_.assign(nv_ + 1, 0);
    for (const auto& e : edges_) {
      ++adj_start_[e.i + 1];
      ++adj_start_[e.j + 1];
    }
    for (int v = 0; v < nv_; ++v) adj_start_[v + 1] += adj_start_[v];
    adj_.resize(2 * ne);
    for (int k = 0; k < ne; ++k) {
      const Edge& e = edges_[k];
      adj_[adj_start_[e.i]++] = Arc{e.j, 2 * k + 1, e.w};
      adj_[adj_start_[e.j]++] = Arc{e.i, 2 * k, e.w};
    }
    for (int v = nv_; v > 0; --v) adj_start_[v] = adj_start_[v - 1];
    adj_start_[0] = 0;
    mate_.assign(nv_, -1);
    label_.assign(2 * nv_, 0);
    labelend_.assign(2 * nv_, -1);
    inblossom_.resize(nv_);
    for (int v = 0; v < nv_; ++v) inblossom_[v] = v;
    blossomparent_.assign(2 * nv_, -1);
    blossombase_.resize(2 * nv_);
    for (int v = 0; v < nv_; ++v) blossombase_[v] = v;
    for (int b = nv_; b < 2 * nv_; ++b) blossombase_[b] = -1;
    blossomchilds_.resize(2 * nv_);
    blossomendps_.resize(2 * nv_);
    // One more slot than there are blossom ids: the sink, where offers
    // that belong to no slot go. Its slack is the lowest value, so no
    // offer sticks there.
    best_.assign(2 * nv_ + 1, Slot{});
    best_[sink()].slack = std::numeric_limits<std::int64_t>::min();
    blossombestedges_.resize(2 * nv_);
    has_bestedges_.assign(2 * nv_, false);
    bestedgeto_.assign(2 * nv_, -1);
    for (int b = 2 * nv_ - 1; b >= nv_; --b) unusedblossoms_.push_back(b);
    dualvar_.assign(2 * nv_, 0);
    for (int v = 0; v < nv_; ++v) dualvar_[v] = maxweight;
    allowedge_.assign(ne, false);
  }

  /// Greedy jump start (Kolmogorov's Blossom V initialisation) for
  /// max-cardinality instances that have a perfect matching; call once,
  /// before solve(). Each vertex's dual becomes its largest incident
  /// weight, so every slack is >= 0. Then, in index order, each vertex
  /// lowers its dual by its smallest slack, which makes at least one of its
  /// edges tight, and a free vertex takes the first free neighbour across a
  /// tight edge as its mate. Duals stay feasible and matched edges tight,
  /// so the stages start from a partial matching rather than from uniform
  /// duals and an empty one. Weights are even, so every dual stays even:
  /// the free vertices share a parity and delta3 = slack/2 stays integral.
  /// Not for the plain maximum-weight problem, whose optimality needs equal
  /// duals on the vertices left single.
  void jump_start() {
    SIC_CHECK(maxcard_);
    for (int v = 0; v < nv_; ++v) {
      const auto arcs = arcs_of(v);
      if (!arcs.empty()) dualvar_[v] = std::ranges::max(arcs, {}, &Arc::w).w;
    }
    for (int v = 0; v < nv_; ++v) {
      const auto arcs = arcs_of(v);
      if (arcs.empty()) continue;
      std::int64_t least = std::numeric_limits<std::int64_t>::max();
      const Arc* pick = nullptr;  // first free neighbour at the least slack
      for (const Arc& arc : arcs) {
        const std::int64_t s = dualvar_[v] + dualvar_[arc.to] - 2 * arc.w;
        const bool free = mate_[arc.to] == -1;
        if (s < least) {
          least = s;
          pick = free ? &arc : nullptr;
        } else if (s == least && pick == nullptr && free) {
          pick = &arc;
        }
      }
      dualvar_[v] -= least;
      if (mate_[v] == -1 && pick != nullptr) {
        mate_[v] = pick->p;
        mate_[pick->to] = pick->p ^ 1;
      }
    }
  }

  [[nodiscard]] const SolveStats& stats() const { return stats_; }

  std::vector<int> solve() {
    if (nv_ == 0) return {};
    for (int stage = 0; stage < nv_; ++stage) {
      ++stats_.stages;
      std::fill(label_.begin(), label_.end(), 0);
      std::fill(best_.begin(), best_.begin() + sink(), Slot{});
      for (int b = nv_; b < 2 * nv_; ++b) {
        blossombestedges_[b].clear();
        has_bestedges_[b] = false;
      }
      std::fill(allowedge_.begin(), allowedge_.end(), false);
      queue_.clear();
      for (int v = 0; v < nv_; ++v) {
        if (mate_[v] == -1 && label_[inblossom_[v]] == 0) {
          assign_label(v, 1, -1);
        }
      }
      bool augmented = false;
      for (;;) {
        while (!queue_.empty() && !augmented) {
          const int v = queue_.back();
          queue_.pop_back();
          SIC_DCHECK(label_[inblossom_[v]] == 1);
          // v's dual holds through its scan: duals move only between scans.
          const std::int64_t dv = dualvar_[v];
          int bv = inblossom_[v];  // moves only on the tight-arc path
          std::uint64_t visits = 0;
          for (const Arc& arc : arcs_of(v)) {
            ++visits;
            const int k = arc.p / 2;
            const int w = arc.to;
            const int bw = inblossom_[w];
            if (bv == bw) continue;
            if (!allowedge_[k]) {
              const std::int64_t kslack = dv + dualvar_[w] - 2 * arc.w;
              if (kslack > 0) {
                offer(offer_slot(bv, bw, w), k, kslack);
                continue;
              }
              allowedge_[k] = true;
            }
            if (label_[bw] == 0) {
              assign_label(w, 2, arc.p ^ 1);
            } else if (label_[bw] == 1) {
              const int base = scan_blossom(v, w);
              if (base >= 0) {
                add_blossom(base, k);
              } else {
                augment_matching(k);
                augmented = true;
                break;
              }
            } else if (label_[w] == 0) {
              SIC_DCHECK(label_[bw] == 2);
              label_[w] = 2;
              labelend_[w] = arc.p ^ 1;
            }
            bv = inblossom_[v];
          }
          stats_.edge_visits += visits;
        }
        if (augmented) break;

        // No augmenting path under the current duals; compute the dual
        // adjustment delta.
        int deltatype = -1;
        std::int64_t delta = 0;
        int deltaedge = -1;
        int deltablossom = -1;
        if (!maxcard_) {
          deltatype = 1;
          delta = *std::min_element(dualvar_.begin(), dualvar_.begin() + nv_);
        }
        for (int v = 0; v < nv_; ++v) {
          if (label_[inblossom_[v]] == 0 && best_[v].edge != -1) {
            SIC_DCHECK(slot_exact(v));
            const std::int64_t d = best_[v].slack;
            if (deltatype == -1 || d < delta) {
              delta = d;
              deltatype = 2;
              deltaedge = best_[v].edge;
            }
          }
        }
        for (int b = 0; b < 2 * nv_; ++b) {
          if (blossomparent_[b] == -1 && label_[b] == 1 &&
              best_[b].edge != -1) {
            SIC_DCHECK(slot_exact(b));
            const std::int64_t kslack = best_[b].slack;
            SIC_DCHECK(kslack % 2 == 0);
            const std::int64_t d = kslack / 2;
            if (deltatype == -1 || d < delta) {
              delta = d;
              deltatype = 3;
              deltaedge = best_[b].edge;
            }
          }
        }
        for (int b = nv_; b < 2 * nv_; ++b) {
          if (blossombase_[b] >= 0 && blossomparent_[b] == -1 &&
              label_[b] == 2 && (deltatype == -1 || dualvar_[b] < delta)) {
            delta = dualvar_[b];
            deltatype = 4;
            deltablossom = b;
          }
        }
        if (deltatype == -1) {
          // Max-cardinality optimum reached; final clean-up delta.
          SIC_CHECK(maxcard_);
          deltatype = 1;
          delta = std::max<std::int64_t>(
              0, *std::min_element(dualvar_.begin(), dualvar_.begin() + nv_));
        }

        // The slots' cached slacks follow the duals. An unlabeled vertex's
        // slot falls by delta (its S end falls, its own end holds), a
        // top-level S-blossom's by 2 delta (both ends are S). A slot inside
        // a T-blossom holds (its ends move by -delta and +delta) until the
        // T-blossom expands. Slots inside S-blossoms are never read again
        // this stage.
        for (int v = 0; v < nv_; ++v) {
          const int bv = inblossom_[v];
          const int lbl = label_[bv];
          if (lbl == 1) {
            dualvar_[v] -= delta;
            if (bv == v && best_[v].edge != -1) best_[v].slack -= 2 * delta;
          } else if (lbl == 2) {
            dualvar_[v] += delta;
          } else if (best_[v].edge != -1) {
            best_[v].slack -= delta;
          }
        }
        for (int b = nv_; b < 2 * nv_; ++b) {
          if (blossombase_[b] >= 0 && blossomparent_[b] == -1) {
            if (label_[b] == 1) {
              dualvar_[b] += delta;
              if (best_[b].edge != -1) best_[b].slack -= 2 * delta;
            } else if (label_[b] == 2) {
              dualvar_[b] -= delta;
            }
          }
        }

        if (deltatype == 1) {
          break;  // optimum reached
        } else if (deltatype == 2) {
          allowedge_[deltaedge] = true;
          int i = edges_[deltaedge].i;
          if (label_[inblossom_[i]] == 0) i = edges_[deltaedge].j;
          SIC_DCHECK(label_[inblossom_[i]] == 1);
          queue_.push_back(i);
        } else if (deltatype == 3) {
          allowedge_[deltaedge] = true;
          const int i = edges_[deltaedge].i;
          SIC_DCHECK(label_[inblossom_[i]] == 1);
          queue_.push_back(i);
        } else {
          expand_blossom(deltablossom, false);
        }
      }
      if (!augmented) break;
      // End of stage: expand all S-blossoms with zero dual.
      for (int b = nv_; b < 2 * nv_; ++b) {
        if (blossomparent_[b] == -1 && blossombase_[b] >= 0 &&
            label_[b] == 1 && dualvar_[b] == 0) {
          expand_blossom(b, true);
        }
      }
    }

    std::vector<int> result(nv_, -1);
    for (int v = 0; v < nv_; ++v) {
      if (mate_[v] >= 0) result[v] = endpoint_[mate_[v]];
    }
    for (int v = 0; v < nv_; ++v) {
      SIC_DCHECK(result[v] == -1 || result[result[v]] == v);
    }
    return result;
  }

 private:
  static constexpr std::int64_t kNoSlack =
      std::numeric_limits<std::int64_t>::max();

  /// A least-slack slot: its edge, -1 when empty, and that edge's slack
  /// under the current duals, kNoSlack when empty.
  struct Slot {
    std::int64_t slack = kNoSlack;
    int edge = -1;
  };

  /// One adjacency entry: the far vertex, its endpoint id (2k or 2k+1 for
  /// edge k), and the edge's quantised weight.
  struct Arc {
    int to;
    int p;
    std::int64_t w;
  };

  [[nodiscard]] std::span<const Arc> arcs_of(int v) const {
    return {adj_.data() + adj_start_[v], adj_.data() + adj_start_[v + 1]};
  }

  [[nodiscard]] std::int64_t slack(int k) const {
    return dualvar_[edges_[k].i] + dualvar_[edges_[k].j] - 2 * edges_[k].w;
  }

  /// The slot past the last blossom id, where offers to no slot go.
  [[nodiscard]] int sink() const { return 2 * nv_; }

  /// The slot a non-tight edge from an S-vertex in top-level blossom bv to
  /// w (top-level blossom bw) is offered to: bv's when bw is S, w's when w
  /// is unlabeled, otherwise the sink. Which case holds depends on the
  /// data, so masks pick the slot rather than branches.
  [[nodiscard]] int offer_slot(int bv, int bw, int w) const {
    const int to_s = -static_cast<int>(label_[bw] == 1);
    const int to_free = -static_cast<int>(label_[w] == 0);
    return (bv & to_s) | (~to_s & ((w & to_free) | (sink() & ~to_free)));
  }

  /// Offers edge k at slack s to slot x: it sticks only when s is strictly
  /// below the slot's cached slack, so the first least edge in scan order
  /// keeps the slot. The slot is read whole whatever the outcome, so the
  /// compiler selects the new values without a data-dependent branch.
  void offer(int x, int k, std::int64_t s) {
    SIC_DCHECK(slot_exact(x));
    const Slot held = best_[x];
    const bool less = s < held.slack;
    best_[x].slack = less ? s : held.slack;
    best_[x].edge = less ? k : held.edge;
  }

  /// True when slot x's cached slack is its edge's slack under the current
  /// duals, or the sentinel of an empty slot.
  [[nodiscard]] bool slot_exact(int x) const {
    return best_[x].edge == -1
               ? x == sink() || best_[x].slack == kNoSlack
               : best_[x].slack == slack(best_[x].edge);
  }

  /// Calls f(v) for every vertex v inside blossom b, in child order.
  template <typename F>
  void for_each_leaf(int b, F&& f) const {
    if (b < nv_) {
      f(b);
      return;
    }
    for (const int child : blossomchilds_[b]) for_each_leaf(child, f);
  }

  /// Labels the top-level blossom containing w as S (t=1) or T (t=2),
  /// entered through endpoint p.
  void assign_label(int w, int t, int p) {
    const int b = inblossom_[w];
    SIC_DCHECK(label_[w] == 0 && label_[b] == 0);
    label_[w] = label_[b] = t;
    labelend_[w] = labelend_[b] = p;
    best_[w] = best_[b] = Slot{};
    if (t == 1) {
      for_each_leaf(b, [this](int leaf) { queue_.push_back(leaf); });
    } else {
      const int base = blossombase_[b];
      SIC_DCHECK(mate_[base] >= 0);
      assign_label(endpoint_[mate_[base]], 1, mate_[base] ^ 1);
    }
  }

  /// Traces back from the S-vertices v and w; returns the base of a new
  /// blossom, or -1 if an augmenting path was found instead.
  int scan_blossom(int v, int w) {
    path_.clear();
    int base = -1;
    while (v != -1 || w != -1) {
      int b = inblossom_[v];
      if (label_[b] & 4) {
        base = blossombase_[b];
        break;
      }
      SIC_DCHECK(label_[b] == 1);
      path_.push_back(b);
      label_[b] |= 4;
      if (mate_[blossombase_[b]] == -1) {
        v = -1;  // reached a single vertex; swap to the other side
      } else {
        v = endpoint_[mate_[blossombase_[b]]];
        b = inblossom_[v];
        SIC_DCHECK(label_[b] == 2);
        SIC_DCHECK(labelend_[b] >= 0);
        v = endpoint_[labelend_[b]];
      }
      if (w != -1) std::swap(v, w);
    }
    for (const int b : path_) label_[b] &= ~4;
    return base;
  }

  /// Shrinks the cycle through edge k with the given base into a new
  /// S-blossom.
  void add_blossom(int base, int k) {
    int v = edges_[k].i;
    int w = edges_[k].j;
    const int bb = inblossom_[base];
    int bv = inblossom_[v];
    int bw = inblossom_[w];
    SIC_CHECK_MSG(!unusedblossoms_.empty(), "blossom ids exhausted");
    ++stats_.blossoms_formed;
    const int b = unusedblossoms_.back();
    unusedblossoms_.pop_back();
    blossombase_[b] = base;
    blossomparent_[b] = -1;
    blossomparent_[bb] = b;
    auto& path = blossomchilds_[b];
    auto& endps = blossomendps_[b];
    path.clear();
    endps.clear();
    while (bv != bb) {
      blossomparent_[bv] = b;
      path.push_back(bv);
      endps.push_back(labelend_[bv]);
      SIC_DCHECK(labelend_[bv] >= 0);
      v = endpoint_[labelend_[bv]];
      bv = inblossom_[v];
    }
    path.push_back(bb);
    std::reverse(path.begin(), path.end());
    std::reverse(endps.begin(), endps.end());
    endps.push_back(2 * k);
    while (bw != bb) {
      blossomparent_[bw] = b;
      path.push_back(bw);
      endps.push_back(labelend_[bw] ^ 1);
      SIC_DCHECK(labelend_[bw] >= 0);
      w = endpoint_[labelend_[bw]];
      bw = inblossom_[w];
    }
    SIC_DCHECK(label_[bb] == 1);
    label_[b] = 1;
    labelend_[b] = labelend_[bb];
    dualvar_[b] = 0;
    for_each_leaf(b, [this, b](int leaf) {
      if (label_[inblossom_[leaf]] == 2) queue_.push_back(leaf);
      inblossom_[leaf] = b;
    });
    // Merge least-slack edge lists of the sub-blossoms: a child without a
    // list offers every edge of its leaves, read in place from the CSR.
    for (const int child : path) {
      if (!has_bestedges_[child]) {
        for_each_leaf(child, [this, b](int leaf) {
          for (const Arc& arc : arcs_of(leaf)) {
            offer_bestedge(b, arc.p / 2, arc.to);
          }
        });
      } else {
        for (const int ek : blossombestedges_[child]) {
          int j = edges_[ek].j;
          if (inblossom_[j] == b) j = edges_[ek].i;
          offer_bestedge(b, ek, j);
        }
      }
      blossombestedges_[child].clear();
      has_bestedges_[child] = false;
      best_[child] = Slot{};
    }
    // Collect in blossom-id order, resetting the scratch as we go.
    auto& best = blossombestedges_[b];
    best.clear();
    for (int bj = 0; bj < 2 * nv_; ++bj) {
      if (bestedgeto_[bj] != -1) {
        best.push_back(bestedgeto_[bj]);
        bestedgeto_[bj] = -1;
      }
    }
    has_bestedges_[b] = true;
    best_[b] = Slot{};
    for (const int ek : best) {
      const std::int64_t s = slack(ek);
      if (s < best_[b].slack) {
        best_[b].slack = s;
        best_[b].edge = ek;
      }
    }
  }

  /// Keeps edge ek, whose far vertex is j, as the new blossom b's
  /// least-slack edge towards j's top-level S-blossom if it improves on it.
  void offer_bestedge(int b, int ek, int j) {
    const int bj = inblossom_[j];
    if (bj != b && label_[bj] == 1 &&
        (bestedgeto_[bj] == -1 || slack(ek) < slack(bestedgeto_[bj]))) {
      bestedgeto_[bj] = ek;
    }
  }

  /// Dissolves blossom b into its children. During a stage (endstage ==
  /// false) a T-blossom's children must be relabeled along the alternating
  /// path from the entry point to the base.
  void expand_blossom(int b, bool endstage) {
    // Read in place: recursion clears only the children's own lists, and
    // relabeling never touches b's, which is cleared at the end.
    const std::vector<int>& childs = blossomchilds_[b];
    for (const int s : childs) {
      blossomparent_[s] = -1;
      if (s < nv_) {
        inblossom_[s] = s;
      } else if (endstage && dualvar_[s] == 0) {
        expand_blossom(s, endstage);
      } else {
        for_each_leaf(s, [this, s](int leaf) { inblossom_[leaf] = s; });
      }
    }
    if (!endstage && label_[b] == 2) {
      SIC_DCHECK(labelend_[b] >= 0);
      const int entrychild = inblossom_[endpoint_[labelend_[b] ^ 1]];
      const int len = static_cast<int>(childs.size());
      int j = static_cast<int>(
          std::find(childs.begin(), childs.end(), entrychild) -
          childs.begin());
      SIC_DCHECK(j < len);
      int jstep;
      int endptrick;
      if (j & 1) {
        j -= len;
        jstep = 1;
        endptrick = 0;
      } else {
        jstep = -1;
        endptrick = 1;
      }
      const auto child_at = [&](int idx) {
        return childs[(idx % len + len) % len];
      };
      const auto endp_at = [&](int idx) {
        const auto& endps = blossomendps_[b];
        return endps[(idx % len + len) % len];
      };
      int p = labelend_[b];
      while (j != 0) {
        label_[endpoint_[p ^ 1]] = 0;
        label_[endpoint_[endp_at(j - endptrick) ^ endptrick ^ 1]] = 0;
        assign_label(endpoint_[p ^ 1], 2, p);
        allowedge_[endp_at(j - endptrick) / 2] = true;
        j += jstep;
        p = endp_at(j - endptrick) ^ endptrick;
        allowedge_[p / 2] = true;
        j += jstep;
      }
      const int bv = child_at(j);
      label_[endpoint_[p ^ 1]] = label_[bv] = 2;
      labelend_[endpoint_[p ^ 1]] = labelend_[bv] = p;
      best_[bv] = Slot{};
      j += jstep;
      while (child_at(j) != entrychild) {
        const int bw = child_at(j);
        if (label_[bw] == 1) {
          j += jstep;
          continue;
        }
        int labeled = -1;
        for_each_leaf(bw, [this, &labeled](int leaf) {
          if (labeled == -1 && label_[leaf] != 0) labeled = leaf;
        });
        if (labeled != -1) {
          SIC_DCHECK(label_[labeled] == 2);
          SIC_DCHECK(inblossom_[labeled] == bw);
          label_[labeled] = 0;
          label_[endpoint_[mate_[blossombase_[bw]]]] = 0;
          assign_label(labeled, 2, labelend_[labeled]);
        }
        j += jstep;
      }
    }
    label_[b] = -1;
    labelend_[b] = -1;
    blossomchilds_[b].clear();
    blossomendps_[b].clear();
    blossombase_[b] = -1;
    blossombestedges_[b].clear();
    has_bestedges_[b] = false;
    best_[b] = Slot{};
    unusedblossoms_.push_back(b);
  }

  /// Swaps matched/unmatched edges inside blossom b so that vertex v
  /// becomes the blossom's base.
  void augment_blossom(int b, int v) {
    int t = v;
    while (blossomparent_[t] != b) t = blossomparent_[t];
    if (t >= nv_) augment_blossom(t, v);
    auto& childs = blossomchilds_[b];
    auto& endps = blossomendps_[b];
    const int len = static_cast<int>(childs.size());
    const int i = static_cast<int>(
        std::find(childs.begin(), childs.end(), t) - childs.begin());
    SIC_DCHECK(i < len);
    int j = i;
    int jstep;
    int endptrick;
    if (i & 1) {
      j -= len;
      jstep = 1;
      endptrick = 0;
    } else {
      jstep = -1;
      endptrick = 1;
    }
    const auto child_at = [&](int idx) {
      return childs[(idx % len + len) % len];
    };
    const auto endp_at = [&](int idx) {
      return endps[(idx % len + len) % len];
    };
    while (j != 0) {
      j += jstep;
      int tb = child_at(j);
      const int p = endp_at(j - endptrick) ^ endptrick;
      if (tb >= nv_) augment_blossom(tb, endpoint_[p]);
      j += jstep;
      tb = child_at(j);
      if (tb >= nv_) augment_blossom(tb, endpoint_[p ^ 1]);
      mate_[endpoint_[p]] = p ^ 1;
      mate_[endpoint_[p ^ 1]] = p;
    }
    std::rotate(childs.begin(), childs.begin() + i, childs.end());
    std::rotate(endps.begin(), endps.begin() + i, endps.end());
    blossombase_[b] = blossombase_[childs.front()];
    SIC_DCHECK(blossombase_[b] == v);
  }

  /// Augments the matching along the path through edge k.
  void augment_matching(int k) {
    ++stats_.augmentations;
    const int kv = edges_[k].i;
    const int kw = edges_[k].j;
    const std::pair<int, int> starts[2] = {{kv, 2 * k + 1}, {kw, 2 * k}};
    for (const auto& [start_s, start_p] : starts) {
      int s = start_s;
      int p = start_p;
      for (;;) {
        const int bs = inblossom_[s];
        SIC_DCHECK(label_[bs] == 1);
        SIC_DCHECK(labelend_[bs] == mate_[blossombase_[bs]]);
        if (bs >= nv_) augment_blossom(bs, s);
        mate_[s] = p;
        if (labelend_[bs] == -1) break;  // reached a single vertex
        const int t = endpoint_[labelend_[bs]];
        const int bt = inblossom_[t];
        SIC_DCHECK(label_[bt] == 2);
        SIC_DCHECK(labelend_[bt] >= 0);
        s = endpoint_[labelend_[bt]];
        const int j = endpoint_[labelend_[bt] ^ 1];
        SIC_DCHECK(blossombase_[bt] == t);
        if (bt >= nv_) augment_blossom(bt, j);
        mate_[j] = labelend_[bt];
        p = labelend_[bt] ^ 1;
      }
    }
  }

  int nv_;
  std::vector<Edge> edges_;
  bool maxcard_;
  std::vector<int> endpoint_;
  std::vector<int> adj_start_;  // v's arcs: adj_[adj_start_[v] .. [v + 1])
  std::vector<Arc> adj_;
  std::vector<int> mate_;
  std::vector<int> label_;
  std::vector<int> labelend_;
  std::vector<int> inblossom_;
  std::vector<int> blossomparent_;
  std::vector<int> blossombase_;
  std::vector<std::vector<int>> blossomchilds_;
  std::vector<std::vector<int>> blossomendps_;
  /// Least-slack edge per slot: an unlabeled vertex's (towards S), or a
  /// top-level S-blossom's (towards another S-blossom).
  std::vector<Slot> best_;
  std::vector<std::vector<int>> blossombestedges_;
  std::vector<char> has_bestedges_;
  std::vector<int> unusedblossoms_;
  std::vector<std::int64_t> dualvar_;
  std::vector<char> allowedge_;
  std::vector<int> queue_;
  std::vector<int> path_;        // scan_blossom scratch
  std::vector<int> bestedgeto_;  // add_blossom scratch, all -1 between calls
  SolveStats stats_;
};

/// The even-integer grid both entry points quantise onto: the largest
/// magnitude maps to 2·2²⁶. Exact dual arithmetic needs integer weights,
/// and evenness keeps delta3 = slack/2 integral.
double grid_scale(double maxabs) {
  return maxabs > 0.0 ? static_cast<double>(std::int64_t{1} << 26) / maxabs
                      : 1.0;
}

std::int64_t on_grid(double weight, double scale) {
  return 2 * std::llround(weight * scale);
}

std::vector<BlossomMatcher::Edge> quantize(std::span<const WeightedEdge> edges) {
  double maxabs = 0.0;
  for (const auto& e : edges) {
    if (!std::isfinite(e.weight)) {
      throw MatchingError("blossom matching: edge " + pair_name(e.u, e.v) +
                          " has non-finite weight " + std::to_string(e.weight));
    }
    maxabs = std::max(maxabs, std::fabs(e.weight));
  }
  const double scale = grid_scale(maxabs);
  std::vector<BlossomMatcher::Edge> out;
  out.reserve(edges.size());
  for (const auto& e : edges) {
    out.push_back(BlossomMatcher::Edge{e.u, e.v, on_grid(e.weight, scale)});
  }
  return out;
}

/// Quantises the Fig. 12 reduction w' = max_cost − cost of a complete cost
/// matrix, in row-major (i < j) edge order. max_cost and the grid come from
/// the finite costs alone, so an all-finite matrix lands on the grid that
/// max_weight_matching would use for the same w'. A +inf cost is a pair
/// that never completes: its edge weighs −(n/2 · top + 2), where top is the
/// largest finite weight, so one more such pair always outweighs anything
/// the finite edges of a perfect matching can make up. The matcher
/// therefore minimises the number of never-completing pairs first and the
/// finite total second. NaN and −inf costs are rejected.
std::vector<BlossomMatcher::Edge> quantize_costs(const CostMatrix& costs) {
  const int n = costs.size();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double c = costs.at(i, j);
      if (std::isnan(c) || (std::isinf(c) && c < 0.0)) {
        throw MatchingError("blossom perfect matching: cost of pair " +
                            pair_name(i, j) + " is " + std::to_string(c) +
                            " (costs must be finite or +inf)");
      }
      if (std::isfinite(c)) {
        lo = std::min(lo, c);
        hi = std::max(hi, c);
      }
    }
  }
  // Rounding is monotone, so the largest w' is hi − lo.
  const double maxabs = std::isfinite(hi) ? hi - lo : 0.0;
  const double scale = grid_scale(maxabs);
  const std::int64_t never =
      -(static_cast<std::int64_t>(n / 2) * on_grid(maxabs, scale) + 2);
  std::vector<BlossomMatcher::Edge> out;
  out.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double c = costs.at(i, j);
      out.push_back(BlossomMatcher::Edge{
          i, j, std::isfinite(c) ? on_grid(hi - c, scale) : never});
    }
  }
  return out;
}

void require_even(int n) {
  if (n % 2 != 0) {
    throw MatchingError(
        "blossom perfect matching requires an even vertex count, got n = " +
        std::to_string(n));
  }
}

/// The pairs of a perfect \p mate vector in index order, with their total.
Matching to_matching(const CostMatrix& costs, std::span<const int> mate) {
  Matching result;
  for (int v = 0; v < static_cast<int>(mate.size()); ++v) {
    if (v < mate[v]) {
      result.pairs.emplace_back(v, mate[v]);
      result.total_cost += costs.at(v, mate[v]);
    }
  }
  return result;
}

/// The gain graph, in row-major order on max_weight_matching's grid: an
/// edge g = serial[i] + serial[j] − cost for each pair with g > 0, none at
/// an unservable (+inf) vertex. A first pass validates and sizes it.
std::vector<BlossomMatcher::Edge> quantize_gains(
    const CostMatrix& costs, std::span<const double> serial) {
  const int n = costs.size();
  const auto gain_of = [&](int i, int j) {
    const double c = costs.at(i, j);
    const double sum = serial[i] + serial[j];
    if (!(c <= sum) || c == -std::numeric_limits<double>::infinity()) {
      throw MatchingError("blossom perfect matching: pair " + pair_name(i, j) +
                          " costs " + std::to_string(c) + ", outside (-inf, " +
                          std::to_string(sum) + "], its serial sum");
    }
    return std::isfinite(sum) ? sum - c : 0.0;
  };
  double top = 0.0;
  std::size_t kept = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double g = gain_of(i, j);
      top = std::max(top, g);
      kept += g > 0.0 ? 1 : 0;
    }
  }
  const double scale = grid_scale(top);
  std::vector<BlossomMatcher::Edge> out;
  out.reserve(kept);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double g = gain_of(i, j);
      if (g > 0.0) out.push_back(BlossomMatcher::Edge{i, j, on_grid(g, scale)});
    }
  }
  return out;
}

/// One blossom call over \p n vertices: builds the quantised edges with
/// \p build, solves (jump-started if asked), and times the whole call into
/// matching.blossom.wall_s / .calls. Work counters publish in one batch.
template <typename Build>
std::vector<int> solve_timed(int n, Build&& build, bool max_cardinality,
                             bool jump_start) {
  obs::MetricsRegistry* reg = obs::metrics();
  const obs::ScopedTimer timer{
      reg != nullptr ? &reg->histogram("matching.blossom.wall_s") : nullptr,
      reg != nullptr ? &reg->counter("matching.blossom.calls") : nullptr};
  BlossomMatcher matcher{n, build(), max_cardinality};
  if (jump_start) matcher.jump_start();
  auto mate = matcher.solve();
  SIC_CHECK(is_valid_mate_vector(mate));
  if (reg != nullptr) {
    const auto& st = matcher.stats();
    reg->counter("matching.blossom.stages").inc(st.stages);
    reg->counter("matching.blossom.augmentations").inc(st.augmentations);
    reg->counter("matching.blossom.edge_visits").inc(st.edge_visits);
    reg->counter("matching.blossom.blossoms_formed").inc(st.blossoms_formed);
    reg->counter("matching.blossom.vertices").inc(
        static_cast<std::uint64_t>(n));
  }
  return mate;
}

}  // namespace

std::vector<int> max_weight_matching(int n,
                                     std::span<const WeightedEdge> edges,
                                     bool max_cardinality) {
  SIC_CHECK(n >= 0);
  return solve_timed(n, [&] { return quantize(edges); }, max_cardinality,
                     /*jump_start=*/false);
}

Matching min_weight_perfect_matching(const CostMatrix& costs) {
  const int n = costs.size();
  require_even(n);
  if (n == 0) return {};
  const std::vector<int> mate =
      solve_timed(n, [&] { return quantize_costs(costs); },
                  /*max_cardinality=*/true, /*jump_start=*/true);
  int unmatched = 0;
  for (int v = 0; v < n; ++v) {
    if (mate[v] == -1) ++unmatched;
  }
  if (unmatched != 0) {
    throw MatchingError("blossom matching left " + std::to_string(unmatched) +
                        " of " + std::to_string(n) +
                        " vertices unmatched (matching is not perfect)");
  }
  return to_matching(costs, mate);
}

Matching min_weight_perfect_matching(const CostMatrix& costs,
                                     std::span<const double> serial) {
  const int n = costs.size();
  require_even(n);
  if (serial.size() != static_cast<std::size_t>(n)) {
    throw MatchingError("blossom perfect matching: " +
                        std::to_string(serial.size()) +
                        " serial costs for n = " + std::to_string(n));
  }
  for (int v = 0; v < n; ++v) {
    if (!(serial[v] >= 0.0)) {
      throw MatchingError("blossom perfect matching: vertex " +
                          std::to_string(v) + " has serial cost " +
                          std::to_string(serial[v]) + " (must be >= 0)");
    }
  }
  if (n == 0) return {};
  std::vector<int> mate =
      solve_timed(n, [&] { return quantize_gains(costs, serial); },
                  /*max_cardinality=*/false, /*jump_start=*/false);
  // Pair the singles in index order, unservable ones first. No two share a
  // positive-gain edge (it would extend the matching), so each has g = 0.
  for (const bool unservable_only : {true, false}) {
    int waiting = -1;
    for (int v = 0; v < n; ++v) {
      if (mate[v] != -1 || (unservable_only && std::isfinite(serial[v]))) {
        continue;
      }
      if (waiting != -1) {
        mate[waiting] = v;
        mate[v] = waiting;
      }
      waiting = waiting == -1 ? v : -1;
    }
  }
  return to_matching(costs, mate);
}

}  // namespace sic::matching

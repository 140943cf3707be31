#include "la/amd.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ind::la {
namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Indexed binary min-heap over nodes keyed by (degree[node], node): the
/// smallest degree first, ties to the smallest index. The key is a strict
/// total order, so the pop sequence is the one any exact priority queue on
/// it would give.
class DegreeHeap {
 public:
  explicit DegreeHeap(const std::vector<std::size_t>& degree)
      : degree_(degree), heap_(degree.size()), slot_(degree.size()) {
    for (std::size_t i = 0; i < heap_.size(); ++i) heap_[i] = slot_[i] = i;
    for (std::size_t s = heap_.size() / 2; s-- > 0;) sift_down(s);
  }

  std::size_t pop() {
    const std::size_t top = heap_.front();
    place(0, heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  /// Restores the heap after degree[node] changed.
  void update(std::size_t node) {
    sift_up(slot_[node]);
    sift_down(slot_[node]);
  }

 private:
  bool less(std::size_t u, std::size_t v) const {
    return degree_[u] < degree_[v] || (degree_[u] == degree_[v] && u < v);
  }
  void place(std::size_t s, std::size_t node) {
    heap_[s] = node;
    slot_[node] = s;
  }
  void sift_up(std::size_t s) {
    const std::size_t node = heap_[s];
    while (s > 0 && less(node, heap_[(s - 1) / 2])) {
      place(s, heap_[(s - 1) / 2]);
      s = (s - 1) / 2;
    }
    place(s, node);
  }
  void sift_down(std::size_t s) {
    const std::size_t node = heap_[s];
    const std::size_t size = heap_.size();
    for (std::size_t c = 2 * s + 1; c < size; c = 2 * s + 1) {
      if (c + 1 < size && less(heap_[c + 1], heap_[c])) ++c;
      if (!less(heap_[c], node)) break;
      place(s, heap_[c]);
      s = c;
    }
    place(s, node);
  }

  const std::vector<std::size_t>& degree_;
  std::vector<std::size_t> heap_, slot_;
};
}  // namespace

std::vector<std::size_t> amd_order(const CscMatrix& a) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("amd_order: matrix must be square");
  const std::size_t n = a.rows();
  std::vector<std::size_t> order;
  order.reserve(n);
  if (n == 0) return order;

  // Quotient graph in flat arrays. Variable i owns the slice
  // iw[head[i], head[i+1]) sized by its entry count in A + Aᵀ: plain-edge
  // neighbours (nadj[i], deduplicated, no self-loops) fill it from the
  // front, adjacent elements (nelem[i]) from the back. A variable joins a
  // new element p only through an edge to p or through an element that p
  // absorbs, and that entry is dropped as p is added, so the two parts
  // never collide. An eliminated pivot p becomes element p whose variable
  // list ew[elem_head[p], +elem_len[p]) is the clique its elimination would
  // fill in. Only list *contents* matter below (each new list is sorted,
  // degrees are sums), so in-place compaction leaves the order unchanged.
  std::vector<std::size_t> head(n + 1, 0);
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = cp[j]; p < cp[j + 1]; ++p)
      if (ri[p] != j) {
        ++head[ri[p] + 1];
        ++head[j + 1];
      }
  for (std::size_t i = 0; i < n; ++i) head[i + 1] += head[i];
  std::vector<std::size_t> iw(head[n]);
  std::vector<std::size_t> nadj(n, 0), nelem(n, 0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) {
      const std::size_t i = ri[p];
      if (i == j) continue;
      iw[head[i] + nadj[i]++] = j;
      iw[head[j] + nadj[j]++] = i;
    }
  std::vector<std::size_t> degree(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto first = iw.begin() + static_cast<std::ptrdiff_t>(head[i]);
    const auto last = first + static_cast<std::ptrdiff_t>(nadj[i]);
    std::sort(first, last);
    nadj[i] = static_cast<std::size_t>(std::unique(first, last) - first);
    degree[i] = nadj[i];
  }

  std::vector<std::size_t> ew, elem_head(n, 0), elem_len(n, 0);
  ew.reserve(iw.size());
  std::vector<char> alive(n, 1);
  std::vector<char> absorbed(n, 0);
  std::vector<std::size_t> mark(n, kNone);
  DegreeHeap queue(degree);

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t p = queue.pop();
    const std::size_t p_end = head[p + 1];

    // L_p = (adjacent variables ∪ variables of adjacent elements) \ {p},
    // appended to ew as the new element's list (indices, not iterators:
    // ew grows while earlier elements are read).
    const std::size_t lp = ew.size();
    mark[p] = k;
    for (std::size_t t = head[p]; t < head[p] + nadj[p]; ++t) {
      const std::size_t v = iw[t];
      if (!alive[v] || mark[v] == k) continue;
      mark[v] = k;
      ew.push_back(v);
    }
    for (std::size_t t = p_end - nelem[p]; t < p_end; ++t) {
      const std::size_t e = iw[t];
      for (std::size_t q = elem_head[e]; q < elem_head[e] + elem_len[e]; ++q) {
        const std::size_t v = ew[q];
        if (!alive[v] || mark[v] == k) continue;
        mark[v] = k;
        ew.push_back(v);
      }
    }
    std::sort(ew.begin() + static_cast<std::ptrdiff_t>(lp), ew.end());

    // Old elements reachable from p are absorbed into the new element p.
    for (std::size_t t = p_end - nelem[p]; t < p_end; ++t) {
      absorbed[iw[t]] = 1;
      elem_len[iw[t]] = 0;
    }
    nelem[p] = 0;
    elem_head[p] = lp;
    elem_len[p] = ew.size() - lp;

    for (std::size_t q = lp; q < ew.size(); ++q) {
      const std::size_t i = ew[q];
      const std::size_t first = head[i], last = head[i + 1];
      // Edges into L_p ∪ {p} are now covered by element p; dead variables
      // are dropped on the same pass.
      std::size_t na = 0;
      for (std::size_t t = first; t < first + nadj[i]; ++t) {
        const std::size_t v = iw[t];
        if (!alive[v] || v == p || mark[v] == k) continue;
        iw[first + na++] = v;
      }
      nadj[i] = na;
      std::size_t ne = 0;
      for (std::size_t t = last; t-- > last - nelem[i];) {
        const std::size_t e = iw[t];
        if (absorbed[e]) continue;
        iw[last - 1 - ne++] = e;
      }
      iw[last - 1 - ne++] = p;
      nelem[i] = ne;

      // Approximate external degree: plain edges plus element sizes (shared
      // members may be double-counted — the "approximate" in AMD).
      std::size_t d2 = na;
      for (std::size_t t = last - ne; t < last; ++t) d2 += elem_len[iw[t]] - 1;
      degree[i] = d2;
      queue.update(i);
    }

    alive[p] = 0;
    nadj[p] = 0;
    order.push_back(p);
  }
  return order;
}

}  // namespace ind::la

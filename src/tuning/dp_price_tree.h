#ifndef HTUNE_TUNING_DP_PRICE_TREE_H_
#define HTUNE_TUNING_DP_PRICE_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace htune {

/// Persistent (path-copying) fixed-width array of per-group (price, value)
/// pairs with a max-over-values aggregate, backing the budget-indexed DPs.
///
/// The paper's Algorithm 2/3 DP used to keep a full std::vector<int> price
/// vector per budget state — O(spare * n) memory and an O(n) copy per state.
/// Here each DP state is just an int32 root id; extending a state by one
/// price unit path-copies O(log n) nodes, and querying one group's price (or
/// the max latency excluding one group) walks O(log n) nodes. Peak memory is
/// O(n + spare * log n) arena nodes plus one root id per state — O(spare)
/// for bounded group counts, with no per-state vector copies anywhere.
///
/// Versions are immutable once created, so reads of existing roots and a
/// single writer appending new versions need no synchronization (the DPs are
/// serial).
class DpPriceTree {
 public:
  /// A tree of `n` leaves, all starting at `price`; leaf i carries
  /// `values[i]` (pass an empty vector for all-zero values when the max
  /// aggregate is unused). The initial version is root().
  DpPriceTree(size_t n, int price, const std::vector<double>& values);

  /// Root id of the initial all-`price` version.
  int32_t root() const { return init_root_; }

  /// Reserves arena capacity for `updates` WithLeaf calls.
  void ReserveUpdates(size_t updates);

  /// Price of leaf i in version `root`.
  int PriceAt(int32_t root, size_t i) const;

  /// Max over all leaf values in version `root`.
  double MaxValue(int32_t root) const;

  /// Max over all leaf values except leaf i in version `root`
  /// (-infinity when n == 1): the candidate O2 of bumping group i is
  /// max(MaxValueExcluding(root, i), new value of i) without materializing
  /// the update.
  double MaxValueExcluding(int32_t root, size_t i) const;

  /// A new version equal to `root` with leaf i set to (price, value);
  /// path-copies O(log n) nodes and returns the new root id.
  int32_t WithLeaf(int32_t root, size_t i, int price, double value);

  /// All leaf prices of version `root`, in leaf order (one traversal).
  std::vector<int> Prices(int32_t root) const;

 private:
  struct Node {
    int32_t left = -1;
    int32_t right = -1;
    int32_t price = 0;  // leaves only
    double value = 0.0;  // leaf value, or max over the subtree
  };

  int32_t Build(size_t lo, size_t hi, int price,
                const std::vector<double>& values);
  int32_t CopySet(int32_t node, size_t lo, size_t hi, size_t i, int price,
                  double value);
  void Collect(int32_t node, std::vector<int>& out) const;

  size_t n_;
  std::vector<Node> nodes_;
  int32_t init_root_;
};

}  // namespace htune

#endif  // HTUNE_TUNING_DP_PRICE_TREE_H_

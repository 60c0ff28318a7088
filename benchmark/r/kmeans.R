# The paper's Figure 3 (k-means), with the two repairs
# crates/rlang/tests/paper_programs.rs documents (`num.moves` is assigned,
# the centre sums are divided along margin 1), and one change for the
# benchmark: a fixed number of iterations instead of `while (num.moves >
# 0)`, so every round makes the same passes whatever the seed.
kmeans <- function(X, C) {
  I <- NULL
  num.moves <- nrow(X)
  for (i in 1:kmeans.iters) {
    D <- inner.prod(X, t(C), "euclidean", "+")
    old.I <- I
    I <- agg.row(D, "which.min")
    I <- set.cache(I, TRUE)
    CNT <- groupby.row(rep.int(1, nrow(I)), I, "+")
    C <- sweep(groupby.row(X, I, "+"), 1, CNT, "/")
    if (!is.null(old.I))
      num.moves <- as.vector(sum(old.I != I))
  }
  C
}
C <- kmeans(Z, C0)
stopifnot(abs(min(C)) < 0.3, abs(max(C) - 6) < 0.3)

# Set-up for r_smallpass: one-partition inputs for the two listings.
# `n`, `seed` and the iteration counts are defined by the benchmark.
num.features <- 8
truth <- matrix(c(1.5, -1, 0.5, 2, -0.5, 0.25, 1, -1.5), nrow = 1)
X <- materialize(rnorm.matrix(n, num.features, seed = seed))
y <- materialize(sigmoid(X %*% t(truth)) > runif.matrix(n, 1, seed = seed + 1))

# Two blobs on the diagonal, at 0 and at 6 in every coordinate.
shift <- (runif.matrix(n, 1, seed = seed + 2) > 0.5) * 6
Z <- materialize(rnorm.matrix(n, num.features, sd = 0.4, seed = seed + 3) + shift)
C0 <- matrix(c(1, 5), nrow = 2, ncol = num.features)

# The paper's Figure 2 (logistic regression by gradient descent with line
# search), with the repair crates/rlang/tests/paper_programs.rs documents
# (the cost is recomputed inside the line search and compared with `>`),
# and one change for the benchmark: the outer loop and the line search run
# a fixed number of steps, so every round makes the same passes whatever
# the seed.
logistic.regression <- function(X, y) {
  grad <- function(X, y, w)
    (t(X) %*% (1/(1+exp(-X%*%t(w)))-y))/length(y)
  cost <- function(X, y, w)
    sum(y*(-X%*%t(w))+log(1+exp(X%*%t(w))))/length(y)
  theta <- matrix(rep(0, num.features), nrow=1)
  for (i in 1:max.iters) {
    g <- grad(X, y, theta)
    l <- cost(X, y, theta)
    eta <- 1
    delta <- 0.5 * (-g) %*% t(g)
    for (j in 1:line.search.steps)
      if (as.vector(cost(X, y, theta+eta*(-g))) > as.vector(l)+as.vector(delta)[1]*eta)
        eta <- eta * 0.2
    theta <- theta + (-g) * eta
  }
  theta
}
theta <- logistic.regression(X, y)
final.cost <- as.vector(sum(y*(-X%*%t(theta))+log(1+exp(X%*%t(theta))))/length(y))
stopifnot(final.cost < log(2), theta[1, 1] > 0, theta[1, 2] < 0, theta[1, 4] > theta[1, 3])

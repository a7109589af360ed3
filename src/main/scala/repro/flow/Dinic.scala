package repro.flow

/** Dinic max-flow / min-st-cut over Double capacities.
  *
  * The paper's exact algorithms only need an exact min-st-cut oracle inside
  * the binary search (they use Gusfield's algorithm); Dinic is exact and
  * simple. Capacities here are O(cliqueDegree) with gaps no finer than
  * 1/(n(n-1)) between meaningful α values, far above double round-off.
  *
  * Arcs live in primitive arrays sized from `arcHint` (doubled when full).
  * Augmenting paths use an explicit stack, in a recursive current-arc DFS's
  * order, so depth is not bounded by the call stack. [[reset]] restores the
  * capacities, so one network serves many max-flow runs.
  */
final class Dinic(val n: Int, arcHint: Int = 16) {
  private val EPS = 1e-10

  private val head = Array.fill(n)(-1)
  private var next = new Array[Int](math.max(2, arcHint * 2))
  private var to   = new Array[Int](next.length)
  private var cap  = new Array[Double](next.length)
  private var base = new Array[Double](next.length)
  private var m    = 0
  private var nPhases = 0L

  /** Arcs added, not counting reverse arcs. */
  def arcs: Int = m / 2

  /** Augmenting phases (BFS rounds that reached t) over every [[maxFlow]]. */
  def phases: Long = nPhases

  // plain throws, not `require`: these run once per arc
  private def checkNode(v: Int, what: String): Unit =
    if (v < 0 || v >= n) throw new IllegalArgumentException(s"$what $v is outside [0, $n)")

  private def checkCap(c: Double): Unit =
    if (!(c >= 0 && c < Double.PositiveInfinity))
      throw new IllegalArgumentException(s"capacity must be finite and >= 0, got $c")

  /** Add a directed edge u -> v with capacity c (reverse edge cap 0); returns its arc id. */
  def addEdge(u: Int, v: Int, c: Double): Int = {
    checkNode(u, "tail"); checkNode(v, "head"); checkCap(c)
    if (m + 2 > next.length) {
      val len = next.length * 2
      next = java.util.Arrays.copyOf(next, len); to = java.util.Arrays.copyOf(to, len)
      cap = java.util.Arrays.copyOf(cap, len); base = java.util.Arrays.copyOf(base, len)
    }
    next(m) = head(u); to(m) = v; cap(m) = c; base(m) = c; head(u) = m
    next(m + 1) = head(v); to(m + 1) = u; head(v) = m + 1
    m += 2
    m - 2
  }

  /** Set arc e's capacity, effective from the next [[reset]]. */
  def setCapacity(e: Int, c: Double): Unit = {
    if (e < 0 || e >= m || e % 2 != 0) throw new IllegalArgumentException(s"no arc $e")
    checkCap(c)
    base(e) = c
  }

  /** Drop all flow: every arc gets back its capacity. */
  def reset(): Unit = System.arraycopy(base, 0, cap, 0, m)

  private val level = new Array[Int](n)
  private val iter  = new Array[Int](n)
  private val queue = new Array[Int](n)
  private val path  = new Array[Int](n)

  /** Residual BFS from s: level(v) >= 0 iff v is reachable. */
  private def bfs(s: Int): Unit = {
    java.util.Arrays.fill(level, -1)
    level(s) = 0; queue(0) = s
    var qh = 0; var qt = 1
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var e = head(u)
      while (e >= 0) {
        if (cap(e) > EPS && level(to(e)) < 0) { level(to(e)) = level(u) + 1; queue(qt) = to(e); qt += 1 }
        e = next(e)
      }
    }
  }

  /** Push flow along one level-graph path; 0 when none is left. */
  private def augment(s: Int, t: Int): Double = {
    var depth = 0
    var u     = s
    while (u != t) {
      var e = iter(u)
      while (e >= 0 && !(cap(e) > EPS && level(to(e)) == level(u) + 1)) { e = next(e); iter(u) = e }
      if (e >= 0) { path(depth) = e; depth += 1; u = to(e) }
      else if (depth == 0) return 0.0
      else { // dead end: back up and skip the arc that led here
        depth -= 1
        u = to(path(depth) ^ 1)
        iter(u) = next(path(depth))
      }
    }
    var f = Double.MaxValue
    var i = 0
    while (i < depth) { f = math.min(f, cap(path(i))); i += 1 }
    while (i > 0) { i -= 1; cap(path(i)) -= f; cap(path(i) ^ 1) += f }
    f
  }

  /** Run max flow from s to t; returns the flow value. */
  def maxFlow(s: Int, t: Int): Double = {
    checkNode(s, "source"); checkNode(t, "sink")
    if (s == t) throw new IllegalArgumentException(s"source and sink are both $s")
    var flow = 0.0
    bfs(s)
    while (level(t) >= 0) {
      nPhases += 1
      System.arraycopy(head, 0, iter, 0, n)
      var f = augment(s, t)
      while (f > EPS) { flow += f; f = augment(s, t) }
      bfs(s)
    }
    flow
  }

  /** After maxFlow: the source side S of a minimum st-cut (residual BFS). */
  def minCutSourceSide(s: Int): Array[Boolean] = {
    checkNode(s, "source")
    bfs(s)
    Array.tabulate(n)(level(_) >= 0)
  }
}

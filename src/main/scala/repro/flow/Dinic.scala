package repro.flow

/** Dinic max-flow / min-st-cut over Double capacities.
  *
  * The paper's exact algorithms only need an exact min-st-cut oracle inside
  * the binary search (they use Gusfield's algorithm); Dinic is exact and
  * simple. Capacities here are O(cliqueDegree); at a probe α = ρ(S) a
  * denser subgraph S′ lowers the min cut by at least h/|S|, far above
  * double round-off.
  *
  * [[addEdge]] appends to an arc list (sized from `arcHint`, doubled when
  * full). The first [[reset]], [[maxFlow]] or [[minCutSourceSide]] lays the
  * arcs out, once, in forward-star (CSR) form: node u's arcs, reverse arcs
  * included, are the contiguous slice `start(u) until start(u + 1)`, newest
  * first, and `rev` pairs each arc with its reverse. No arc can be added
  * after that. An arc's reverse has capacity 0 unless `addEdge` gives it
  * one, so a pair of opposite arcs can share two slots instead of taking
  * four. Augmenting paths use an explicit stack and enter only nodes below
  * t's level (or t), so a phase never descends into nodes at t's level that
  * cannot reach t. [[minCutSourceSide]] reuses the levels of [[maxFlow]]'s
  * last BFS while nothing has changed since. [[reset]] restores the
  * capacities, so one network serves many max-flow runs.
  */
final class Dinic(val n: Int, arcHint: Int = 16) {
  private val EPS = 1e-10

  // the arc list, in addEdge order: arc e is arcTail(e) -> arcHead(e), capacity
  // arcCap(e), its reverse capacity arcBack(e); `paired` counts positive arcBack
  private var arcTail = new Array[Int](math.max(1, arcHint))
  private var arcHead = new Array[Int](arcTail.length)
  private var arcCap  = new Array[Double](arcTail.length)
  private var arcBack = new Array[Double](arcTail.length)
  private var m       = 0
  private var paired  = 0

  // the CSR layout of the arcs and their reverses, once `laidOut`: arc e is at
  // slot(e), its reverse at rev(slot(e)); base holds the capacities reset restores
  private var laidOut = false
  private val start   = new Array[Int](n + 1)
  private var to      = Array.emptyIntArray
  private var rev     = Array.emptyIntArray
  private var cap     = Array.emptyDoubleArray
  private var base    = Array.emptyDoubleArray
  private var slot    = Array.emptyIntArray

  private var nPhases = 0L
  private var cutFrom = -1 // source whose complete residual BFS `level` holds, or -1

  /** Arcs added: one per `addEdge`, two for a pair with a positive back
    * capacity; zero-capacity reverse arcs are not counted. */
  def arcs: Int = m + paired

  /** Augmenting phases (BFS rounds that reached t) over every [[maxFlow]]. */
  def phases: Long = nPhases

  // plain throws, not `require`: these run once per arc
  private def checkNode(v: Int, what: String): Unit =
    if (v < 0 || v >= n) throw new IllegalArgumentException(s"$what $v is outside [0, $n)")

  private def checkCap(c: Double, what: String = "capacity"): Unit =
    if (!(c >= 0 && c < Double.PositiveInfinity))
      throw new IllegalArgumentException(s"$what must be finite and >= 0, got $c")

  /** Add a directed edge u -> v with capacity c whose reverse edge v -> u
    * has capacity `back` (the same cut as a second `addEdge(v, u, back)`);
    * returns its arc id.
    *
    * @throws IllegalStateException once the arcs are laid out */
  def addEdge(u: Int, v: Int, c: Double, back: Double = 0.0): Int = {
    if (laidOut) throw new IllegalStateException("addEdge after the arcs were laid out")
    checkNode(u, "tail"); checkNode(v, "head"); checkCap(c); checkCap(back, "back capacity")
    if (m == arcTail.length) {
      val len = m * 2
      arcTail = java.util.Arrays.copyOf(arcTail, len); arcHead = java.util.Arrays.copyOf(arcHead, len)
      arcCap = java.util.Arrays.copyOf(arcCap, len); arcBack = java.util.Arrays.copyOf(arcBack, len)
    }
    arcTail(m) = u; arcHead(m) = v; arcCap(m) = c; arcBack(m) = back
    if (back > 0) paired += 1
    m += 1
    m - 1
  }

  /** Set arc e's capacity (not its back capacity), effective from the next [[reset]]. */
  def setCapacity(e: Int, c: Double): Unit = {
    if (e < 0 || e >= m) throw new IllegalArgumentException(s"no arc $e")
    checkCap(c)
    arcCap(e) = c
    if (laidOut) base(slot(e)) = c
    cutFrom = -1
  }

  /** Drop all flow: every arc gets back its capacity. */
  def reset(): Unit = {
    layout()
    System.arraycopy(base, 0, cap, 0, 2 * m)
    cutFrom = -1
  }

  /** Lay out all arcs in CSR form, once. */
  private def layout(): Unit = if (!laidOut) {
    var e = 0
    while (e < m) { start(arcTail(e) + 1) += 1; start(arcHead(e) + 1) += 1; e += 1 }
    var u = 0
    while (u < n) { start(u + 1) += start(u); u += 1 }
    val fill = java.util.Arrays.copyOfRange(start, 1, n + 1) // fills each slice from its end
    to = new Array[Int](2 * m); rev = new Array[Int](2 * m); slot = new Array[Int](m)
    base = new Array[Double](2 * m)
    e = 0
    while (e < m) {
      fill(arcTail(e)) -= 1; val p = fill(arcTail(e))
      fill(arcHead(e)) -= 1; val q = fill(arcHead(e))
      to(p) = arcHead(e); to(q) = arcTail(e); rev(p) = q; rev(q) = p; slot(e) = p
      base(p) = arcCap(e); base(q) = arcBack(e)
      e += 1
    }
    cap = base.clone()
    laidOut = true
  }

  private val level = new Array[Int](n)
  private val iter  = new Array[Int](n)
  private val queue = new Array[Int](n)
  private val path  = new Array[Int](n)

  /** Residual BFS from s: level(v) >= 0 iff v is reachable. Once t is
    * reached, nodes at t's level are not expanded. */
  private def bfs(s: Int, t: Int): Unit = {
    java.util.Arrays.fill(level, -1)
    level(s) = 0; queue(0) = s
    var qh = 0; var qt = 1
    var stop = Int.MaxValue // t's level, once reached
    while (qh < qt && level(queue(qh)) < stop) {
      val u = queue(qh); qh += 1
      var e = start(u)
      val end = start(u + 1)
      while (e < end) {
        val w = to(e)
        if (cap(e) > EPS && level(w) < 0) {
          level(w) = level(u) + 1; queue(qt) = w; qt += 1
          if (w == t) stop = level(w)
        }
        e += 1
      }
    }
  }

  /** A blocking flow in the level graph; returns its value. After each
    * augmentation the search resumes at the tail of the first saturated
    * arc, which finds the same paths as restarting from s. */
  private def blockingFlow(s: Int, t: Int): Double = {
    val lt    = level(t)
    var flow  = 0.0
    var depth = 0
    var u     = s
    var done  = false
    while (!done) {
      if (u == t) {
        var f = Double.MaxValue
        var i = 0
        while (i < depth) { f = math.min(f, cap(path(i))); i += 1 }
        var back = depth
        while (i > 0) {
          i -= 1
          val e = path(i)
          cap(e) -= f; cap(rev(e)) += f
          if (!(cap(e) > EPS)) back = i
        }
        flow += f
        depth = back
        u = if (back == 0) s else to(path(back - 1))
      } else {
        val next = level(u) + 1
        val end  = start(u + 1)
        var e    = iter(u)
        while (e < end && !(cap(e) > EPS && level(to(e)) == next && (next < lt || to(e) == t))) e += 1
        iter(u) = e
        if (e < end) { path(depth) = e; depth += 1; u = to(e) }
        else if (depth == 0) done = true
        else { // dead end: back up and skip the arc that led here
          depth -= 1
          u = to(rev(path(depth)))
          iter(u) += 1
        }
      }
    }
    flow
  }

  /** Run max flow from s to t; returns the flow value. */
  def maxFlow(s: Int, t: Int): Double = {
    checkNode(s, "source"); checkNode(t, "sink")
    if (s == t) throw new IllegalArgumentException(s"source and sink are both $s")
    layout()
    var flow = 0.0
    bfs(s, t)
    while (level(t) >= 0) {
      nPhases += 1
      System.arraycopy(start, 0, iter, 0, n)
      flow += blockingFlow(s, t)
      bfs(s, t)
    }
    cutFrom = s // t was unreachable, so the last BFS was complete
    flow
  }

  /** After maxFlow: the source side S of a minimum st-cut (residual BFS). */
  def minCutSourceSide(s: Int): Array[Boolean] = {
    checkNode(s, "source")
    layout()
    if (cutFrom != s) bfs(s, -1)
    Array.tabulate(n)(level(_) >= 0)
  }
}

package repro.patterns

import java.util.stream.IntStream
import repro.cliques.CliqueEnum
import repro.graph.LocalGraph

/** A pattern Ψ (Section 7): a small connected simple graph.
  *
  * An *instance* is a distinct EDGE SET of G isomorphic to Ψ (Definitions
  * 8–10 — automorphisms of the same edge set are not distinguished).
  * `instances` returns one vertex set per instance; two instances may share
  * a vertex set (e.g. the three 4-cycles inside a K4), in which case the
  * vertex set appears once per distinct edge set — exactly what the
  * clique/pattern-degree and the `construct+` grouping (Algorithm 7) need.
  */
sealed abstract class Pattern(val name: String, val numVertices: Int) extends Serializable {

  /** Visit every instance of Ψ in `g` once, in a fixed order. `f` receives
    * a SORTED array of local vertex ids; the array is reused across calls —
    * copy it to keep it.
    */
  def forEach(g: LocalGraph)(f: Array[Int] => Unit): Unit

  /** All instances of Ψ in `g`, as sorted local-vertex-id arrays, in
    * [[forEach]] order. */
  def instances(g: LocalGraph): Array[Array[Int]] = {
    val out = Array.newBuilder[Array[Int]]
    forEach(g)(out += _.clone())
    out.result()
  }

  /** Pattern-degree deg_G(v, Ψ) per vertex (Definition 9). Overridden with
    * closed-form counting for edges, stars and the diamond (Appendix D).
    */
  def degrees(g: LocalGraph): Array[Long] = {
    val d = new Array[Long](g.n)
    forEach(g) { inst =>
      var i = 0
      while (i < inst.length) { d(inst(i)) += 1; i += 1 }
    }
    d
  }

  /** μ(G, Ψ): the number of instances in `g`. */
  def count(g: LocalGraph): Long = {
    var c = 0L
    forEach(g)(_ => c += 1)
    c
  }

  override def toString: String = name
}

object Pattern {

  /** h-clique (h >= 2); Edge is the 2-clique, Triangle the 3-clique. */
  final case class Clique(h: Int) extends Pattern(s"$h-clique", h) {
    require(h >= 2, s"an h-clique needs h >= 2, got $h")
    def forEach(g: LocalGraph)(f: Array[Int] => Unit): Unit = new CliqueEnum(g, h).forEach(f)

    /** An edge's pattern-degree is its graph degree, and μ is m. */
    override def degrees(g: LocalGraph): Array[Long] =
      if (h > 2) new CliqueEnum(g, h).degrees else IntStream.range(0, g.n).mapToLong(g.degree(_)).toArray

    override def count(g: LocalGraph): Long = if (h > 2) super.count(g) else g.m
  }

  val Edge: Clique     = Clique(2)
  val Triangle: Clique = Clique(3)

  /** x-star: a center with x tail vertices (2-star, c3-star=Star(3), 4-star). */
  final case class Star(tails: Int) extends Pattern(s"$tails-star", tails + 1) {
    require(tails >= 2, s"an x-star needs x >= 2, got $tails")

    def forEach(g: LocalGraph)(f: Array[Int] => Unit): Unit = {
      val pick = new Array[Int](tails)
      val emit = new Array[Int](tails + 1)
      // tails from the center's slice, at positions start until end
      def combos(start: Int, end: Int, depth: Int, center: Int): Unit = {
        if (depth == tails) {
          emit(0) = center
          System.arraycopy(pick, 0, emit, 1, tails)
          java.util.Arrays.sort(emit)
          f(emit)
        } else {
          var i = start
          while (i <= end - (tails - depth)) {
            pick(depth) = g.nbr(i)
            combos(i + 1, end, depth + 1, center)
            i += 1
          }
        }
      }
      var c = 0
      while (c < g.n) { combos(g.off(c), g.off(c + 1), 0, c); c += 1 }
    }

    /** Closed-form star degrees (Appendix D.1, Eq. 25): v is the center of
      * C(d(v), x) stars and a tail of C(d(u) − 1, x − 1) for each u ∈ N(v).
      * Refuses, naming the vertex, a degree that does not fit a Long.
      */
    override def degrees(g: LocalGraph): Array[Long] =
      IntStream.range(0, g.n).mapToLong { v =>
        def what = s"the $name degree of vertex ${g.ids(v)}"
        var t = plus(0L, Combinatorics.choose(g.degree(v), tails), what)
        var i = g.off(v)
        while (i < g.off(v + 1)) { t = plus(t, Combinatorics.choose(g.degree(g.nbr(i)) - 1, tails - 1), what); i += 1 }
        t
      }.toArray

    /** μ = Σ_v C(d(v), x), refused once it does not fit a Long. Every degree
      * and every loss of a peel is at most μ, so a peel that starts from it
      * cannot overflow. */
    override def count(g: LocalGraph): Long =
      IntStream.range(0, g.n).mapToLong(v => Combinatorics.choose(g.degree(v), tails)).reduce(0L, plus(_, _, s"the $name count"))

    /** t + c for counts t, c >= 0, or an ArithmeticException naming `what`
      * when c (a saturated [[Combinatorics.choose]]) or the sum does not fit. */
    private def plus(t: Long, c: Long, what: => String): Long =
      if (c == Long.MaxValue || t > Long.MaxValue - c) throw new ArithmeticException(s"$what does not fit a Long")
      else t + c
  }

  /** Diamond = the 4-cycle C4 (per Appendix D.2 its pattern-degree counts
    * pairs of 2-paths sharing both endpoints, which is exactly C4 counting;
    * chords are allowed because instances are non-induced edge sets).
    */
  case object Diamond extends Pattern("diamond", 4) {

    def forEach(g: LocalGraph)(f: Array[Int] => Unit): Unit = {
      // Each C4 has two diagonals; list it at the one holding its smallest
      // vertex u: a pair {a, b} of middles of 2-paths u-a-v, all above u.
      val emit  = new Array[Int](4)
      val w     = new Wedges(g)
      val all   = Array.fill(g.n)(true)
      val at    = new Array[Int](g.n) // endpoint v -> end of its middles in `mids`
      var mids  = new Array[Int](16)
      var u = 0
      while (u < g.n) {
        w.around(u, all, u)
        var total = 0
        var i = 0
        while (i < w.size) { val v = w.ends(i); at(v) = total; total += w.common(v); i += 1 }
        if (mids.length < total) mids = new Array[Int](math.max(total, mids.length * 2))
        val nbr = g.nbr
        i = g.off(u + 1) - 1
        while (i >= g.off(u) && nbr(i) > u) {
          val a = nbr(i)
          var j = g.off(a + 1) - 1
          while (j >= g.off(a) && nbr(j) > u) { mids(at(nbr(j))) = a; at(nbr(j)) += 1; j -= 1 }
          i -= 1
        }
        i = 0
        while (i < w.size) {
          val v = w.ends(i)
          val e = at(v)
          var x = e - w.common(v)
          while (x < e) {
            var y = x + 1
            while (y < e) { emitSorted(emit, u, v, mids(x), mids(y), f); y += 1 }
            x += 1
          }
          i += 1
        }
        u += 1
      }
    }

    /** Closed-form C4 degree: Σ_{u≠v} C(|N(v) ∩ N(u)|, 2) over all 2-hop
      * (and adjacent) endpoints u (Appendix D.2).
      */
    override def degrees(g: LocalGraph): Array[Long] = {
      val w   = new Wedges(g)
      val all = Array.fill(g.n)(true)
      IntStream.range(0, g.n).mapToLong { v => w.around(v, all, -1); w.cycles }.toArray
    }

    override def count(g: LocalGraph): Long = java.util.Arrays.stream(degrees(g)).sum / 4
  }

  /** 2-triangle: two triangles sharing an edge (4 vertices, 5 edges). */
  case object TwoTriangle extends Pattern("2-triangle", 4) {
    def forEach(g: LocalGraph)(f: Array[Int] => Unit): Unit = {
      val emit = new Array[Int](4)
      // shared edge (u, v) + unordered pair {a, b} of common neighbors;
      // the 5-edge set determines (u, v) (its two degree-3 endpoints), so
      // each instance is produced exactly once.
      for ((u, v) <- g.edges) {
        val cs = slice(g, u).filter(w => w != v && g.hasEdge(v, w))
        var x = 0
        while (x < cs.length) {
          var y = x + 1
          while (y < cs.length) { emitSorted(emit, u, v, cs(x), cs(y), f); y += 1 }
          x += 1
        }
      }
    }
  }

  /** P4: the path on 4 vertices (3 edges). */
  case object Path4 extends Pattern("4-path", 4) {
    def forEach(g: LocalGraph)(f: Array[Int] => Unit): Unit = {
      val emit = new Array[Int](4)
      // middle edge (b, c) with b < c; a attaches to b, d attaches to c.
      for ((b, c) <- g.edges) {
        val as = slice(g, b).filter(_ != c)
        val ds = slice(g, c).filter(_ != b)
        var i = 0
        while (i < as.length) {
          var j = 0
          while (j < ds.length) {
            if (as(i) != ds(j)) emitSorted(emit, as(i), b, c, ds(j), f)
            j += 1
          }
          i += 1
        }
      }
    }
  }

  /** Tailed triangle: a triangle with one pendant edge (4 vertices, 4 edges). */
  case object TailedTriangle extends Pattern("tailed-triangle", 4) {
    def forEach(g: LocalGraph)(f: Array[Int] => Unit): Unit = {
      val emit = new Array[Int](4)
      new CliqueEnum(g, 3).forEach { t =>
        var i = 0
        while (i < 3) {
          val c = t(i)
          var j = g.off(c)
          while (j < g.off(c + 1)) {
            val d = g.nbr(j)
            if (d != t(0) && d != t(1) && d != t(2)) emitSorted(emit, t(0), t(1), t(2), d, f)
            j += 1
          }
          i += 1
        }
      }
    }
  }

  /** A copy of the neighbour slice of `v`, for the cold listings. */
  private def slice(g: LocalGraph, v: Int): Array[Int] = java.util.Arrays.copyOfRange(g.nbr, g.off(v), g.off(v + 1))

  /** Emit the instance {a, b, c, d} to `f` in `buf`, sorted by insertion. */
  private def emitSorted(buf: Array[Int], a: Int, b: Int, c: Int, d: Int, f: Array[Int] => Unit): Unit = {
    buf(0) = a; buf(1) = b; buf(2) = c; buf(3) = d
    var i = 1
    while (i < 4) {
      val x = buf(i)
      var j = i
      while (j > 0 && buf(j - 1) > x) { buf(j) = buf(j - 1); j -= 1 }
      buf(j) = x
      i += 1
    }
    f(buf)
  }

  /** Pattern by name; the tests look their patterns up here. */
  def byName(s: String): Pattern = s.toLowerCase match {
    case "edge"             => Edge
    case "triangle"         => Triangle
    case "4-clique"         => Clique(4)
    case "5-clique"         => Clique(5)
    case "6-clique"         => Clique(6)
    case "2-star"           => Star(2)
    case "c3-star" | "3-star" => Star(3)
    case "4-star"           => Star(4)
    case "diamond"          => Diamond
    case "2-triangle"       => TwoTriangle
    case "4-path"           => Path4
    case "tailed-triangle"  => TailedTriangle
    case other              => throw new IllegalArgumentException(s"unknown pattern: $other")
  }
}

/** Small combinatorics helpers shared by pattern counting. */
object Combinatorics {
  /** n choose k as Long (0 when k < 0 or k > n); Long.MaxValue when
    * C(n, k) does not fit a Long. Step i makes C(n−kk+i, i), which grows
    * with i, so the first step that overflows means the result does. */
  def choose(n: Int, k: Int): Long = {
    if (k < 0 || n < 0 || k > n) return 0L
    val kk = math.min(k, n - k)
    var res = 1L
    var i = 1
    while (i <= kk) {
      // res·(n−kk+i)/i is integral, so i/gcd(res, i) divides n−kk+i
      val d = gcd(res, i)
      val f = (n - kk + i) / (i / d)
      if (res / d > Long.MaxValue / f) return Long.MaxValue
      res = res / d * f
      i += 1
    }
    res
  }

  private def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)
}

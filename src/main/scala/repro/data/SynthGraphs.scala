package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators + dataset stand-ins.
  *
  * The container is offline, so each real dataset from the paper's Table 2/6
  * is replaced by a generator of the same shape (see DESIGN.md "Data
  * substitutions"): a power-law background, optionally with a planted clique
  * sized to the paper's reported (k_max, Ψ)-core — the structure that makes
  * core-based pruning effective.
  */
object SynthGraphs {

  /** Erdős–Rényi with a target edge count (sampled without replacement).
    *
    * @throws IllegalArgumentException if m exceeds the n(n − 1)/2 pairs
    */
  def erM(n: Int, m: Int, seed: Long = 1): LocalGraph = {
    val rnd = new Random(seed)
    distinctPairs(n, m, Long.MaxValue)(() => (rnd.nextInt(n).toLong << 32) | rnd.nextInt(n))
  }

  /** The graph on 0 until n of the first m distinct pairs {a, b}, a ≠ b,
    * that `draw` gives as (a << 32) | b, or of those it gives in `maxTries`
    * draws. Each pair is kept as one packed key in an id hash.
    *
    * @throws IllegalArgumentException if m exceeds the n(n − 1)/2 pairs
    */
  private def distinctPairs(n: Int, m: Int, maxTries: Long)(draw: () => Long): LocalGraph = {
    val pairs = n.toLong * (n - 1) / 2
    if (m > pairs) throw new IllegalArgumentException(s"$m edges asked for on $n vertices, which have at most $pairs")
    val seen  = new LocalGraph.IdIndex
    var tries = 0L
    while (seen.size < m && tries < maxTries) {
      val p = draw(); val a = (p >>> 32).toInt; val b = p.toInt
      if (a != b) seen(if (a < b) p else (b.toLong << 32) | a)
      tries += 1
    }
    val keys = seen.ids
    LocalGraph.fromEdges(Iterator.tabulate(seen.size)(i => (keys(i) >>> 32, keys(i) & 0xFFFFFFFFL)), 0L until n.toLong)
  }

  /** Chung–Lu power-law: expected degree of rank-i vertex ∝ (i+1)^(-1/(alpha-1)),
    * scaled so the expected edge count is ~m. Produces heavy-tailed degrees
    * like the paper's real graphs (Appendix B reports alpha in [2.28, 2.98]).
    * An alpha <= 1, whose exponent is undefined or positive, is rejected,
    * as is an m above the n(n − 1)/2 pairs.
    */
  def powerLaw(n: Int, m: Int, alpha: Double = 2.5, seed: Long = 1): LocalGraph = {
    if (!(alpha > 1)) throw new IllegalArgumentException(s"power-law alpha must be > 1, got $alpha")
    val rnd   = new Random(seed)
    val gamma = 1.0 / (alpha - 1.0)
    val w     = Array.tabulate(n)(i => math.pow(i + 1.0, -gamma))
    val sumW  = w.sum
    // Draw 2m endpoint pairs from the weight distribution (alias-free CDF walk).
    val cdf = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += w(i); cdf(i) = acc / sumW; i += 1 }
    def draw(): Int = {
      val x  = rnd.nextDouble()
      var lo = 0; var hi = n - 1
      while (lo < hi) { val mid = (lo + hi) / 2; if (cdf(mid) < x) lo = mid + 1 else hi = mid }
      lo
    }
    distinctPairs(n, m, m * 20L)(() => (draw().toLong << 32) | draw())
  }

  /** SSCA-like: vertices partitioned into random-sized groups, each made a
    * clique (GTgraph's SSCA#2 builds graphs from random-sized cliques).
    */
  def ssca(n: Int, maxCliqueSize: Int, seed: Long = 1): LocalGraph = {
    val rnd   = new Random(seed)
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    var start = 0
    while (start < n) {
      val size = math.min(n - start, 2 + rnd.nextInt(math.max(1, maxCliqueSize - 1)))
      var a = start
      while (a < start + size) {
        var b = a + 1
        while (b < start + size) { edges += ((a.toLong, b.toLong)); b += 1 }
        a += 1
      }
      // light inter-clique wiring so the graph is not a disjoint clique union
      if (start > 0) edges += ((rnd.nextInt(start).toLong, (start + rnd.nextInt(size)).toLong))
      start += size
    }
    LocalGraph.fromEdges(edges, (0L until n.toLong))
  }

  /** R-MAT recursive-matrix generator (a=0.57 b=0.19 c=0.19 d=0.05) on
    * 2^scale vertices; a scale outside 1..30 (2^scale overflows) is
    * rejected, as is an m above the pairs of 2^scale vertices. */
  def rmat(scale: Int, m: Int, seed: Long = 1): LocalGraph = {
    if (scale < 1 || scale > 30) throw new IllegalArgumentException(s"R-MAT scale must be in 1..30, got $scale")
    val a = 0.57; val b = 0.19; val c = 0.19
    val rnd = new Random(seed)
    val n   = 1 << scale
    distinctPairs(n, m, m * 20L) { () =>
      var u = 0; var v = 0; var bit = n >> 1
      while (bit > 0) {
        val x = rnd.nextDouble()
        if (x < a) {}
        else if (x < a + b) v += bit
        else if (x < a + b + c) u += bit
        else { u += bit; v += bit }
        bit >>= 1
      }
      (u.toLong << 32) | v
    }
  }

  /** Overlay a quasi-clique (each pair present with probability p) on `size`
    * distinct random vertices of `g` — models the dense near-cliques real
    * graphs contain (e.g. the paper's As-733 row of Table 5 implies a
    * ~24-vertex near-clique with edge density ~9).
    */
  def plantQuasiClique(g: LocalGraph, size: Int, p: Double, seed: Long = 7): LocalGraph = {
    require(size <= g.n, s"blob size $size > n=${g.n}")
    val rnd    = new Random(seed)
    val chosen = rnd.shuffle((0 until g.n).toVector).take(size).map(g.ids)
    val edges  = mutable.ArrayBuffer.empty[(Long, Long)] ++ g.edgesExternal
    for (i <- chosen.indices; j <- (i + 1) until chosen.size)
      if (rnd.nextDouble() < p) edges += ((chosen(i), chosen(j)))
    LocalGraph.fromEdges(edges, g.ids)
  }

  /** Overlay a clique on `size` distinct random vertices of `g`. */
  def plantClique(g: LocalGraph, size: Int, seed: Long = 7): LocalGraph =
    plantQuasiClique(g, size, 1.0, seed)

  /** Spark edge DataFrame (src, dst with src < dst) for a local graph. */
  def toDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    g.edgesExternal.map { case (a, b) => if (a < b) (a, b) else (b, a) }
      .toDF("src", "dst")
  }

  // ------------------------------------------------------------------
  // Dataset stand-ins. scale shrinks the big graphs (n and m multiply).
  // ------------------------------------------------------------------

  /** Description of a stand-in: the paper's dataset it replaces + sizes. */
  final case class StandIn(name: String, paperN: Long, paperM: Long, g: LocalGraph)

  /** Named stand-in registry (see DESIGN.md for the mapping rationale). A
    * scale that is not finite and > 0, or a scaled size above Int.MaxValue, is rejected. */
  def standIn(name: String, scale: Double = 1.0, seed: Long = 11): StandIn = {
    if (!(scale > 0) || scale.isInfinite) throw new IllegalArgumentException(s"stand-in scale must be finite and > 0, got $scale")
    def sz(x: Long): Int =
      if (x * scale <= Int.MaxValue) math.max(16, (x * scale).toInt)
      else throw new IllegalArgumentException(s"$name at scale $scale has a size ${x * scale} above ${Int.MaxValue}")
    name match {
      // ---- small graphs (all algorithms) ----
      // Yeast: sparse PPI net with a small moderately-dense blob (its paper
      // Table-5 row: edge 3.13, 4-clique 0.67, no 5/6-cliques).
      case "Yeast"      => StandIn(name, 1116, 2148,
        plantQuasiClique(powerLaw(sz(1116), sz(2148 - 47), 2.98, seed), 15, 0.45, seed))
      case "Netscience" => StandIn(name, 1589, 2742,
        plantClique(powerLaw(sz(1589), sz(2742 - 190), 2.41, seed), 20, seed))
      // As-733: its Table-5 row (edge 9.19, 5-clique 92.78) implies a
      // ~24-vertex near-clique of density ~0.8.
      case "As-733"     => StandIn(name, 1486, 3172,
        plantQuasiClique(powerLaw(sz(1486), sz(3172 - 220), 2.72, seed), 24, 0.8, seed))
      case "Ca-HepTh"   => StandIn(name, 9877, 25998,
        plantClique(powerLaw(sz(9877), sz(25998 - 496), 2.65, seed), 32, seed))
      case "As-Caida"   => StandIn(name, 26475, 106762,
        plantQuasiClique(powerLaw(sz(26475), sz(106762 - 470), 2.79, seed), 40, 0.6, seed))
      case "S-DBLP"     => StandIn(name, 478, 1086,
        plantClique(powerLaw(478, 1086 - 78, 2.4, seed), 13, seed))
      // ---- large graphs (approximation algorithms; shrink via scale) ----
      // Planted cliques are sized so the k_max-core OUTRANKS the power-law
      // background's densest core, as in the real graphs (paper Appendix B:
      // large k_max, small (k_max, Ψ)-core) — this is the structural property
      // the top-down algorithms' pruning exploits.
      case "DBLP"        => StandIn(name, 425957, 1049866,
        plantClique(powerLaw(sz(425957), sz(1049866), 2.35, seed), 30, seed))
      case "Cit-Patents" => StandIn(name, 3774768, 16518948,
        plantClique(powerLaw(sz(3774768), sz(16518948), 2.28, seed), 50, seed))
      case "Friendster"  => StandIn(name, 20145325, 106570765,
        plantClique(powerLaw(sz(20145325), sz(106570765), 2.45, seed), 70, seed))
      case "Enwiki-2017" => StandIn(name, 5409498, 122008994,
        plantClique(powerLaw(sz(5409498), sz(122008994), 2.44, seed), 150, seed))
      case "UK-2002"     => StandIn(name, 18520486, 298113762,
        plantClique(powerLaw(sz(18520486), sz(298113762), 2.50, seed), 150, seed))
      // ---- appendix Table 6 ----
      case "Flickr"     => StandIn(name, 214698, 2096306,
        plantClique(powerLaw(sz(214698), sz(2096306), 2.5, seed), 24, seed))
      case "Google"     => StandIn(name, 875713, 4322051,
        plantClique(powerLaw(sz(875713), sz(4322051), 2.5, seed), 22, seed))
      case "Foursquare" => StandIn(name, 2127093, 8640352,
        plantClique(powerLaw(sz(2127093), sz(8640352), 2.5, seed), 22, seed))
      // ---- GTgraph synthetics (paper n = 100k; scale applies) ----
      case "SSCA"  => StandIn(name, 100000, 3405676, ssca(sz(100000), 20, seed))
      case "ER"    => StandIn(name, 100000, 4837534,
        erM(sz(100000), sz(4837534), seed))
      case "R-MAT" => StandIn(name, 100000, 2571986,
        rmat(math.max(4, (math.log(sz(100000).toDouble) / math.log(2)).round.toInt),
             sz(2571986), seed))
      case other => throw new IllegalArgumentException(s"unknown stand-in: $other")
    }
  }
}

package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Edge-DataFrame graph utilities (Spark SQL / Catalyst).
  *
  * The canonical representation is an undirected simple graph as a
  * DataFrame with columns `src`, `dst` (LongType), `src < dst`, distinct,
  * no self-loops. Every distributed algorithm in this package consumes and
  * produces this shape.
  */
object GraphDF {

  /** Canonicalize an arbitrary (src, dst) edge DataFrame. */
  def canonical(edges: DataFrame): DataFrame = {
    val e = edges.toDF("src", "dst")
      .select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"))
    e.filter(col("src") =!= col("dst"))
      .select(least(col("src"), col("dst")).as("src"),
              greatest(col("src"), col("dst")).as("dst"))
      .distinct()
  }

  /** Both orientations of each undirected edge — handy for degree counting. */
  def symmetric(edges: DataFrame): DataFrame =
    edges.union(edges.select(col("dst").as("src"), col("src").as("dst")))

  /** (id, deg) for every vertex incident to at least one edge. */
  def degrees(edges: DataFrame): DataFrame =
    symmetric(edges).groupBy(col("src").as("id")).agg(count(lit(1)).as("deg"))

  /** Distinct vertex ids appearing in the edge list. */
  def vertices(edges: DataFrame): DataFrame =
    edges.select(col("src").as("id")).union(edges.select(col("dst").as("id"))).distinct()

  /** Keep only edges whose BOTH endpoints appear in `keep` (column `id`). */
  def inducedEdges(edges: DataFrame, keep: DataFrame): DataFrame = {
    val k = keep.select(col("id"))
    edges
      .join(k.withColumnRenamed("id", "src"), Seq("src"), "leftsemi")
      .join(k.withColumnRenamed("id", "dst"), Seq("dst"), "leftsemi")
      .select("src", "dst")
  }

  /** One round of [[peel]]: `degrees` is the checkpointed `(id, deg)` frame
    * of every live vertex (deg 0 once its edges are gone), and `n`, `degSum`
    * and `minDeg` are its row count, Σdeg and minimum deg.
    */
  final case class Round(degrees: DataFrame, n: Long, degSum: Long, minDeg: Long)

  /** Batched peeling (Bahmani, Kumar & Vassilvitskii, PVLDB 2012), the one
    * pruning loop of `repro.dist`.
    *
    * Each round checkpoints `(id, deg)` for every live vertex, with `degree`
    * (an `(id, count)` frame such as [[degrees]] or [[triangleDegrees]])
    * taken on the residual edges, and reads n, Σdeg and min deg in one
    * aggregate. `cut` returns a threshold t, and every vertex with deg ≤ t
    * leaves, or `None` to stop. The induced edges are checkpointed once: a
    * round is three Spark actions. Returns the live ids (`id`) at the round
    * `cut` stops, or none once every vertex has left.
    */
  def peel(edges0: DataFrame, degree: DataFrame => DataFrame)(cut: Round => Option[Double]): DataFrame = {
    var edges  = canonical(edges0).localCheckpoint(true)
    var live   = vertices(edges)
    var result = Option.empty[DataFrame]
    while (result.isEmpty) {
      val deg = live.join(degree(edges).toDF("id", "deg"), Seq("id"), "left")
        .select(col("id"), coalesce(col("deg"), lit(0L)).as("deg"))
        .localCheckpoint(true)
      val s = deg.agg(count(lit(1)), sum("deg"), min("deg")).head()
      val threshold = if (s.getLong(0) == 0) None
                      else cut(Round(deg, s.getLong(0), s.getLong(1), s.getLong(2)))
      threshold match {
        case None => result = Some(deg.select("id"))
        case Some(t) =>
          live  = deg.filter(col("deg") > t).select("id")
          edges = inducedEdges(edges, live).localCheckpoint(true)
      }
    }
    result.get
  }

  /** The fixed-k rule: ids of the vertices left once every vertex with
    * `degree` < k is pruned, round after round, until none is.
    */
  def coreAt(edges: DataFrame, degree: DataFrame => DataFrame, k: Long): DataFrame =
    peel(edges, degree)(r => if (r.minDeg < k) Some(k - 1.0) else None)

  /** The k_max rule: each round the level k rises to the minimum `degree`
    * and every vertex with degree ≤ k leaves. Returns k_max and the ids of
    * the k_max-core, the residual of the last round that raised k (of the
    * first round if none did).
    */
  def maxCore(edges: DataFrame, degree: DataFrame => DataFrame): (Long, DataFrame) = {
    var k    = 0L
    var core = Option.empty[DataFrame]
    val left = peel(edges, degree) { r =>
      if (core.isEmpty || r.minDeg > k) { k = r.minDeg; core = Some(r.degrees) }
      Some(k.toDouble)
    }
    (k, core.getOrElse(left).select("id"))
  }

  /** Per-vertex triangle participation counts via DataFrame self-joins:
    * triangles are (a < b < c) with edges (a,b), (b,c), (a,c); each vertex of
    * a triangle gets credit once. Returns (id, tdeg) — vertices in no
    * triangle are absent.
    */
  def triangleDegrees(edges: DataFrame): DataFrame = {
    val e1 = edges.select(col("src").as("a"), col("dst").as("b"))
    val e2 = edges.select(col("src").as("b"), col("dst").as("c"))
    val e3 = edges.select(col("src").as("a"), col("dst").as("c"))
    val tris = e1.join(e2, "b").join(e3, Seq("a", "c"))
    tris.select(explode(array(col("a"), col("b"), col("c"))).as("id"))
      .groupBy("id").agg(count(lit(1)).as("tdeg"))
  }

  /** Total triangle count. */
  def triangleCount(spark: SparkSession, edges: DataFrame): Long = {
    val d = triangleDegrees(edges).agg(sum("tdeg")).collect()(0)
    if (d.isNullAt(0)) 0L else d.getLong(0) / 3
  }
}

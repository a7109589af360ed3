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

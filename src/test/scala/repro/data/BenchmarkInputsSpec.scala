package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.LocalGraph

/** Pins every stand-in the benchmark (`dsbench/`) builds at run seed 1:
  * (n, m, hashes of `ids`, `off` and `nbr`), recorded before the three
  * edge samplers became one. A generator edit that changes any benchmark
  * input fails here.
  */
class BenchmarkInputsSpec extends AnyFunSuite {

  private def hash(a: Array[Long]): Long = a.foldLeft(17L)(_ * 1000003L + _)
  private def hash(a: Array[Int]): Long  = a.foldLeft(17L)(_ * 1000003L + _)

  private def fingerprint(g: LocalGraph): (Int, Long, Long, Long, Long) =
    (g.n, g.m, hash(g.ids), hash(g.off), hash(g.nbr))

  // (stand-in, scale, seed) -> (n, m, ids, off, nbr): exact-search reads
  // SSCA at seeds 16-23, exact-onecut Ca-HepTh at 16-18 and Netscience at
  // 16, approx-large Enwiki and R-MAT at 16, and the dist probe Yeast at 16
  private val pinned: Seq[((String, Double, Long), (Int, Long, Long, Long, Long))] = Seq(
    ("SSCA", 0.01, 16L) -> (1000, 6416L, 1168736002156194821L, 8148744082346188547L, 7823936908267088395L),
    ("SSCA", 0.01, 17L) -> (1000, 6030L, 1168736002156194821L, 4061093020137750682L, -814717398993824376L),
    ("SSCA", 0.01, 18L) -> (1000, 6680L, 1168736002156194821L, 6124496366394679508L, 6861832906019974034L),
    ("SSCA", 0.01, 19L) -> (1000, 6390L, 1168736002156194821L, -7630945000302529963L, -3792049913869353165L),
    ("SSCA", 0.01, 20L) -> (1000, 6483L, 1168736002156194821L, 3453412485992396826L, 4178673852938909326L),
    ("SSCA", 0.01, 21L) -> (1000, 6839L, 1168736002156194821L, 2396730852295957478L, 6032102134942151696L),
    ("SSCA", 0.01, 22L) -> (1000, 6315L, 1168736002156194821L, -4377625728213682055L, -395617421503553241L),
    ("SSCA", 0.01, 23L) -> (1000, 6490L, 1168736002156194821L, 2336068138355447085L, 8815738026997180709L),
    ("Ca-HepTh", 1.0, 16L) -> (9877, 25998L, 2370042152059277957L, 3656478304819947126L, -2081296432750267858L),
    ("Ca-HepTh", 1.0, 17L) -> (9877, 25998L, 2370042152059277957L, -7408088140285512580L, 1784152519117143114L),
    ("Ca-HepTh", 1.0, 18L) -> (9877, 25998L, 2370042152059277957L, 3238930751564137994L, 6674132590028245766L),
    ("Netscience", 1.0, 16L) -> (1589, 2742L, 5322673715535766933L, 4076010086054982535L, -3359559460934802205L),
    ("Enwiki-2017", 0.001, 16L) -> (5409, 133113L, 5812621854534592835L, -7198320124586674485L, -6810112325558655487L),
    ("R-MAT", 0.04, 16L) -> (4096, 102879L, 1542453750292744209L, -7384027131479211584L, 7048480312834675506L),
    ("Yeast", 0.05, 16L) -> (55, 147L, -1943636946132586798L, 8257341582685712718L, 5565919408400531152L))

  for (((name, scale, seed), expected) <- pinned) {
    test(s"$name stand-in at scale $scale, seed $seed, is the recorded graph") {
      assert(fingerprint(SynthGraphs.standIn(name, scale, seed).g) == expected)
    }
  }
}

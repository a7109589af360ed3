package repro.exp

import org.scalatest.funsuite.AnyFunSuite

class HarnessSpec extends AnyFunSuite {

  test("render aligns columns and includes every row") {
    val s = Harness.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    assert(s.contains("== T =="))
    assert(s.linesIterator.size == 5)
    assert(s.contains("| 333 | 4  |"))
  }

  test("fmt formats integers without decimals and reals with two") {
    assert(Harness.fmt(0.0) == "0")
    assert(Harness.fmt(6.0) == "6")
    assert(Harness.fmt(2.14285) == "2.14")
    assert(Harness.fmt(171.0) == "171")
    assert(Harness.fmt(726.75) == "726.8")
  }

  test("time measures a thunk and returns its value") {
    val (v, s) = Harness.time { Thread.sleep(5); 42 }
    assert(v == 42 && s >= 0.004)
  }

  test("warmBest warms with reps calls, times reps more and returns the first call's result") {
    var calls = 0
    val (first, best) = Harness.warmBest(4) { calls += 1; calls }
    assert(calls == 8 && first == 1 && best >= 0.0)
  }

  test("benchScale: small graphs full size, large graphs shrunk") {
    assert(Datasets.benchScale("Yeast") == 1.0)
    assert(Datasets.benchScale("UK-2002") == 0.01)
    assert(Datasets.benchScale("ER") == 0.1)
  }

  test("Datasets.load produces the stand-in for every registered name") {
    (Datasets.small ++ Seq("S-DBLP")).foreach { nm =>
      val s = Datasets.load(nm)
      assert(s.g.n > 0 && s.g.m > 0, nm)
    }
  }
}

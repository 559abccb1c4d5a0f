package repro.sort

import org.scalatest.funsuite.AnyFunSuite

import repro.{Ref, TestFiles}
import repro.TestFiles.withTmpDir
import repro.core._

/** Tree-of-losers priority queue with offset-value coding. */
class LoserTreeSpec extends AnyFunSuite {

  private def split[T](rows: Vector[T], k: Int): IndexedSeq[Vector[T]] =
    (0 until k).map(i => rows.zipWithIndex.filter(_._2 % k == i).map(_._1))

  /** Merge `k` pre-sorted coded runs of `rows` and compare against the
    * reference sort of the union; codes must match exactly.
    */
  private def checkMerge(rows: Array[ERow], k: Int, arity: Int): Unit = {
    val junk = new OvcStats
    val expected = Ref.sortCoded(rows)
    // Build k runs round-robin over the *sorted* rows so each run is sorted.
    val sortedRows = rows.sortWith((a, b) => Ovc.compareKeys(a.key, b.key, junk) < 0)
    val runs = split(sortedRows.toVector, k)
      .map(run => DataGen.codeSorted(run.map(_.key), run.map(_.payload)))
    val stats = new OvcStats
    val merged = new LoserTree(runs.map(_.iterator), arity, stats).toVector
    assert(merged.length == expected.length)
    OvcInvariants.verifyChain(merged, arity)
    assert(merged.map(_.key.toVector) == expected.map(_.key.toVector))
    assert(merged.map(_.code) == expected.map(_.code))
  }

  for (seed <- 0 until 3; arity <- Seq(1, 2, 4, 6); k <- Seq(1, 2, 3, 5, 8, 16)) {
    test(s"merge $k runs, arity=$arity, seed=$seed: matches reference sort and codes") {
      checkMerge(DataGen.randomRows(800, arity, 5, seed, payloadArity = 1), k, arity)
    }
  }

  for (seed <- Seq(0, 1)) {
    test(s"merge duplicate-heavy input (seed=$seed)") {
      checkMerge(DataGen.randomRows(1000, 3, 2, seed), 7, 3)
    }
  }

  test("single input passes through unchanged") {
    val rows = DataGen.refSortCoded(DataGen.randomRows(100, 2, 4, seed = 9))
    val stats = new OvcStats
    val out = new LoserTree(IndexedSeq(rows.iterator), 2, stats).toVector
    // Returned rows are copies: compare every key, code and payload value.
    def values(rs: Seq[CodedRow]) = rs.map(r => (r.key.toVector, r.code, r.payload.toVector))
    assert(values(out) == values(rows))
  }

  test("empty inputs produce an empty merge") {
    val stats = new OvcStats
    val out = new LoserTree(IndexedSeq(Iterator.empty, Iterator.empty), 3, stats).toVector
    assert(out.isEmpty)
  }

  test("merge of empty and non-empty inputs") {
    val rows = DataGen.refSortCoded(DataGen.randomRows(50, 2, 3, seed = 5))
    val stats = new OvcStats
    val out = new LoserTree(IndexedSeq(Iterator.empty, rows.iterator, Iterator.empty), 2, stats).toVector
    assert(out.map(_.key.toVector) == rows.map(_.key.toVector))
  }

  test("column comparisons are bounded by N*K during a merge (no log factor)") {
    val arity = 4
    val n = 5000
    val rows = DataGen.randomRows(n, arity, 3, seed = 21)
    val junk = new OvcStats
    val sortedRows = rows.sortWith((a, b) => Ovc.compareKeys(a.key, b.key, junk) < 0)
    val runs = split(sortedRows.toVector, 16)
      .map(run => DataGen.codeSorted(run.map(_.key), run.map(_.payload)))
    val stats = new OvcStats
    new LoserTree(runs.map(_.iterator), arity, stats).foreach(_ => ())
    // Paper §3: the sum of all offset increments is at most K per row, so
    // column comparisons in one merge are at most N*K (plus nothing else).
    assert(stats.columnComparisons <= n.toLong * arity,
           s"columnComparisons=${stats.columnComparisons} > N*K=${n * arity}")
    // And the whole-row decisions are dominated by single-integer code tests.
    assert(stats.codeComparisons >= stats.rowComparisons)
  }

  test("run generation via single-row runs yields the reference codes") {
    val rows = DataGen.randomRows(2000, 3, 4, seed = 17, payloadArity = 1)
    val stats = new OvcStats
    val singles = rows.map(r => Iterator.single(CodedRow(r.key, Ovc.initial(r.key), r.payload))).toIndexedSeq
    val out = new LoserTree(singles, 3, stats).toVector
    val expected = Ref.sortCoded(rows)
    assert(out.map(_.key.toVector) == expected.map(_.key.toVector))
    assert(out.map(_.code) == expected.map(_.code))
    assert(out.map(_.payload.toVector) == expected.map(_.payload.toVector))
    OvcInvariants.verifyChain(out, 3)
  }

  /** Drains `tree` through the cursor API. */
  private def drain(tree: LoserTree): Vector[(Vector[Long], Long, Vector[Long])] = {
    val out = Vector.newBuilder[(Vector[Long], Long, Vector[Long])]
    while (tree.advance()) out += ((tree.key.toVector, tree.code, tree.payload.toVector))
    out.result()
  }

  test("a refilled row buffer sorts like single-row runs, with the same comparisons") {
    val arity = 4
    val stats = new OvcStats
    val buffer = LoserTree.forRows(arity, stats)
    // Refills of falling and rising size reuse and grow the same tree; every
    // row of a fill shares its first `base` columns.
    for ((n, base, seed) <- Seq((300, 0, 1), (37, 1, 2), (1, 0, 3), (0, 0, 4), (513, 2, 5))) {
      val prefix = Array.fill(base)(7L)
      val rows = DataGen.randomRows(n, arity - base, 3, seed, payloadArity = 1)
        .map(r => ERow(prefix ++ r.key, r.payload))
      val refStats = new OvcStats
      val singles = rows.toIndexedSeq.map { r =>
        Iterator.single(CodedRow(r.key, Ovc.pack(arity, base, r.key(base)), r.payload))
      }
      val expected =
        if (n == 0) Vector.empty
        else new LoserTree(singles, arity, refStats).map(r => (r.key.toVector, r.code, r.payload.toVector)).toVector

      stats.reset()
      buffer.clear()
      rows.foreach(r => buffer.add(r.key, r.payload))
      assert(buffer.rows == n)
      buffer.sortRows(base)
      assert(drain(buffer) == expected, s"fill of $n rows at base $base")
      assert(stats.toString == refStats.toString, s"fill of $n rows at base $base")
    }
  }

  for ((k, payloadArity) <- Seq((1, 0), (5, 1), (16, 2))) {
    test(s"merging $k run cursors matches merging $k run readers exactly " +
         s"(payloadArity=$payloadArity)") {
      withTmpDir { dir =>
        val arity = 3
        val rows = DataGen.randomRows(2000, arity, 4, seed = 31, payloadArity)
        val runs = split(Ref.sortCoded(rows), k)
          .map(run => DataGen.codeSorted(run.map(_.key), run.map(_.payload)))
        // The same runs, written twice: each merge deletes the runs it drains.
        val spill, refSpill = new SpillStats
        val paths = runs.map(r => RunFile.write(dir, arity, payloadArity, r.iterator, spill))
        val refPaths = runs.map(r => RunFile.write(dir, arity, payloadArity, r.iterator, refSpill))

        val stats, refStats = new OvcStats
        val out = LoserTree.merge(paths.map(new RunFile.Cursor(_, arity, payloadArity)), arity, stats).toVector
        val expected = new LoserTree(refPaths.map(RunFile.reader(_, arity, payloadArity)), arity, refStats).toVector
        assert(out.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
               expected.map(r => (r.key.toVector, r.code, r.payload.toVector)))
        assert(stats.toString == refStats.toString)
        assert(spill.toString == refSpill.toString)
        OvcInvariants.verifyChain(out, arity)
        assert(TestFiles.ownArrays(out), "rows returned by a cursor merge share arrays")
        assert(dir.toFile.list().isEmpty, "drained cursors delete their runs")
      }
    }
  }

  test("a cursor merge read as a cursor copies rows into two reused arrays") {
    withTmpDir { dir =>
      val runs = split(Ref.sortCoded(DataGen.randomRows(500, 2, 5, seed = 32, payloadArity = 1)), 4)
        .map(run => DataGen.codeSorted(run.map(_.key), run.map(_.payload)))
      val cursors = runs.map(r => new RunFile.Cursor(RunFile.write(dir, 2, 1, r.iterator, new SpillStats), 2, 1))
      val tree = LoserTree.merge(cursors, 2, new OvcStats)
      val expected = Ref.sortCoded(runs.flatten.map(r => ERow(r.key, r.payload)))
      val arrays = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[AnyRef, java.lang.Boolean])
      val out = Vector.newBuilder[(Vector[Long], Long, Vector[Long])]
      while (tree.advance()) {
        arrays.add(tree.key); arrays.add(tree.payload)
        out += ((tree.key.toVector, tree.code, tree.payload.toVector))
      }
      assert(out.result() == expected.map(r => (r.key.toVector, r.code, r.payload.toVector)))
      // Every row came through the same key and payload array, neither of
      // them a cursor's, which the next row read overwrites: reading a row
      // allocated none.
      assert(arrays.size == 2)
      cursors.foreach(c => assert(!arrays.contains(c.key) && !arrays.contains(c.payload)))
    }
  }
}

package repro.sort

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.TestFiles._
import repro.core._

/** External merge sort: spilling, multi-level merges, in-sort dedup. */
class ExternalSortSpec extends AnyFunSuite {

  private def run(rows: Array[ERow], arity: Int, memRows: Int,
                  dedup: Boolean = false, fanIn: Int = ExternalSort.DefaultFanIn,
                  payloadArity: Int = 0)
      : (Vector[CodedRow], OvcStats, SpillStats) = {
    val stats = new OvcStats
    val spill = new SpillStats
    val out = ExternalSort.sort(rows.iterator, arity, payloadArity, memRows,
                                stats, spill, dedup, fanIn).toVector
    (out, stats, spill)
  }

  for (seed <- 0 until 3; memRows <- Seq(16, 100, 1000, 100000)) {
    test(s"sorts like the reference, memRows=$memRows, seed=$seed") {
      val rows = DataGen.randomRows(1000, 3, 6, seed)
      val (out, _, _) = run(rows, 3, memRows)
      val expected = Ref.sortCoded(rows)
      assert(out.map(_.key.toVector) == expected.map(_.key.toVector))
      assert(out.map(_.code) == expected.map(_.code))
      OvcInvariants.verifyChain(out, 3)
    }
  }

  test("in-memory input does not spill") {
    val rows = DataGen.randomRows(500, 2, 5, seed = 1)
    val (out, _, spill) = run(rows, 2, memRows = 1000)
    assert(out.size == 500)
    assert(spill.rowsSpilled == 0)
    assert(spill.runsWritten == 0)
  }

  test("external input spills each row exactly once with a single merge level") {
    val n = 10000
    val rows = DataGen.randomRows(n, 3, 50, seed = 2)
    val (out, _, spill) = run(rows, 3, memRows = 1000)
    assert(out.size == n)
    assert(spill.rowsSpilled == n) // the paper's Figure 3 accounting
    assert(spill.runsWritten == 10)
    assert(spill.mergeLevels == 0) // 10 runs < fan-in: no intermediate level
  }

  test("tiny fan-in forces intermediate merge levels and re-spilling") {
    val n = 2000
    val rows = DataGen.randomRows(n, 2, 40, seed = 3)
    val (out, _, spill) = run(rows, 2, memRows = 100, fanIn = 4)
    assert(out.map(_.key.toVector) == Ref.sortCoded(rows).map(_.key.toVector))
    assert(spill.mergeLevels >= 1)
    assert(spill.rowsSpilled > n) // rows re-spilled by intermediate merges
  }

  for (seed <- 0 until 3) {
    test(s"in-sort dedup returns exactly the distinct keys in order (seed=$seed)") {
      val rows = DataGen.randomRows(3000, 3, 3, seed) // heavy duplication
      val (out, _, _) = run(rows, 3, memRows = 256, dedup = true)
      assert(out.map(_.key.toVector) == Ref.distinctSorted(rows))
      assert(out.forall(r => !Ovc.isDup(r.code)))
      OvcInvariants.verifyChain(out, 3)
    }
  }

  test("in-sort dedup spills fewer rows than the input (duplicates dropped early)") {
    val n = 20000
    val rows = DataGen.randomRows(n, 2, 4, seed = 5) // 16 distinct keys
    val (out, _, spill) = run(rows, 2, memRows = 1000, dedup = true)
    assert(out.size <= 16)
    assert(spill.rowsSpilled < n / 10,
           s"early dedup should spill almost nothing, spilled ${spill.rowsSpilled}")
  }

  test("payloads survive spilling and merging") {
    val rows = DataGen.randomRows(5000, 2, 30, seed = 6, payloadArity = 2)
    val (out, _, spill) = run(rows, 2, memRows = 500, payloadArity = 2)
    assert(spill.rowsSpilled == 5000)
    val expected = Ref.sortCoded(rows)
    assert(out.map(r => (r.key.toVector, r.payload.toVector)) ==
           expected.map(r => (r.key.toVector, r.payload.toVector)))
  }

  test("column comparisons stay near the N*K bound across the full sort") {
    val n = 20000
    val arity = 4
    val rows = DataGen.randomRows(n, arity, 4, seed = 7)
    val (_, stats, _) = run(rows, arity, memRows = 2000)
    // Run generation and one merge level: each phase is bounded by N*K.
    assert(stats.columnComparisons <= 2L * n * arity,
           s"columnComparisons=${stats.columnComparisons}")
  }

  test("empty input yields an empty stream") {
    val (out, _, spill) = run(Array.empty[ERow], 3, 100)
    assert(out.isEmpty)
    assert(spill.rowsSpilled == 0)
  }

  test("single-row input") {
    val (out, _, _) = run(Array(ERow(Array(7L, 8L))), 2, 100)
    assert(out.map(_.key.toVector) == Vector(Vector(7L, 8L)))
    assert(out.head.code == Ovc.initial(Array(7L, 8L)))
  }

  /** The sort rebuilt from merge-mode trees alone: each `memRows` chunk is
    * merged from single-row runs, runs stay in memory and are merged `fanIn`
    * at a time. Returns the output and the rows the real sort would spill.
    */
  private def referenceSort(rows: Array[ERow], arity: Int, memRows: Int, dedup: Boolean,
                            fanIn: Int, stats: OvcStats): (Vector[CodedRow], Long) = {
    def merge(inputs: IndexedSeq[Iterator[CodedRow]]): Vector[CodedRow] = {
      val merged = new LoserTree(inputs, arity, stats)
      (if (dedup) merged.filterNot(r => Ovc.isDup(r.code)) else merged).toVector
    }
    val chunks = rows.grouped(memRows).toVector
    var runs = chunks.map(c => merge(c.toIndexedSeq.map { r =>
      Iterator.single(CodedRow(r.key, Ovc.initial(r.key), r.payload))
    }))
    if (runs.size == 1) return (runs.head, 0L)
    var spilled = runs.map(_.size.toLong).sum
    while (runs.size > fanIn) {
      runs = runs.grouped(fanIn).map(g => merge(g.map(_.iterator))).toVector
      spilled += runs.map(_.size.toLong).sum
    }
    (merge(runs.map(_.iterator)), spilled)
  }

  for (seed <- 0 until 2; memRows <- Seq(1, 7, 64, 1000); dedup <- Seq(false, true)) {
    test(s"row-buffer run generation matches single-row-run trees exactly " +
         s"(memRows=$memRows, dedup=$dedup, seed=$seed)") {
      val rows = DataGen.randomRows(600, 3, 4, seed, payloadArity = 1)
      val refStats = new OvcStats
      val (expected, expectedSpill) = referenceSort(rows, 3, memRows, dedup, ExternalSort.DefaultFanIn, refStats)
      val (out, stats, spill) = run(rows, 3, memRows, dedup, payloadArity = 1)
      assert(out.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
             expected.map(r => (r.key.toVector, r.code, r.payload.toVector)))
      assert(stats.toString == refStats.toString, "code, column and row comparisons must match")
      assert(spill.rowsSpilled == expectedSpill)
      OvcInvariants.verifyChain(out, 3)
    }
  }

  test("row-buffer run generation matches single-row-run trees across merge levels") {
    val rows = DataGen.randomRows(700, 2, 5, seed = 4, payloadArity = 1)
    for (dedup <- Seq(false, true)) {
      val refStats = new OvcStats
      val (expected, expectedSpill) = referenceSort(rows, 2, memRows = 13, dedup, fanIn = 3, refStats)
      val (out, stats, spill) = run(rows, 2, memRows = 13, dedup, fanIn = 3, payloadArity = 1)
      assert(out.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
             expected.map(r => (r.key.toVector, r.code, r.payload.toVector)))
      assert(stats.toString == refStats.toString)
      assert(spill.rowsSpilled == expectedSpill)
      assert(spill.mergeLevels == 3)
    }
  }

  test("closing a half-drained sort deletes its run files from an explicit tmpDir") {
    withTmpDir { dir =>
      val rows = DataGen.randomRows(5000, 3, 50, seed = 8)
      val it = ExternalSort.sort(rows.iterator, 3, 0, 500, new OvcStats, new SpillStats, tmpDir = dir)
      assert(dir.toFile.list().length == 10)
      (0 until 2500).foreach(_ => it.next())
      it.close()
      assert(dir.toFile.list().isEmpty)
      assert(!it.hasNext)
      it.close() // idempotent
    }
  }

  test("draining a sort deletes its run files") {
    withTmpDir { dir =>
      val rows = DataGen.randomRows(3000, 2, 40, seed = 9)
      val it = ExternalSort.sort(rows.iterator, 2, 0, 400, new OvcStats, new SpillStats, tmpDir = dir)
      assert(it.size == 3000)
      assert(dir.toFile.list().isEmpty)
    }
  }

  test("keys outside [0, 2^48) fail fast, naming the row and the value") {
    // 3,000 random 3-column keys in [-50, 50].
    val rnd = new scala.util.Random(12)
    val rows = Array.fill(3000)(ERow(Array.fill(3)(rnd.nextInt(101) - 50L)))
    val bad = rows.indexWhere(_.key.exists(_ < 0))
    val value = rows(bad).key.find(_ < 0).get
    val e = intercept[IllegalArgumentException](run(rows, 3, memRows = 256))
    assert(e.getMessage.contains(s"row $bad:") && e.getMessage.contains(s"value $value "),
           e.getMessage)

    val big = Array(ERow(Array(1L, 2L)), ERow(Array(3L, 1L << 48)))
    val e2 = intercept[IllegalArgumentException](run(big, 2, memRows = 100))
    assert(e2.getMessage.contains("row 1:") && e2.getMessage.contains(s"value ${1L << 48} "),
           e2.getMessage)
  }

  test("a key or payload of the wrong length fails fast, naming the row") {
    val short = Array(ERow(Array(1L, 2L, 3L)), ERow(Array(4L, 5L)))
    val e = intercept[IllegalArgumentException](run(short, 3, memRows = 100))
    assert(e.getMessage.contains("row 1:") && e.getMessage.contains("2 columns"), e.getMessage)

    val pay = Array(ERow(Array(1L), Array(9L)), ERow(Array(2L), Array(9L)))
    val e2 = intercept[IllegalArgumentException](run(pay, 1, memRows = 100, payloadArity = 2))
    assert(e2.getMessage.contains("row 0:") && e2.getMessage.contains("payload"), e2.getMessage)
  }

  test("a sort that fails after spilling deletes the runs it wrote") {
    withTmpDir { dir =>
      val rows = DataGen.randomRows(2000, 2, 40, seed = 10) :+ ERow(Array(-1L, 0L))
      intercept[IllegalArgumentException] {
        ExternalSort.sort(rows.iterator, 2, 0, 300, new OvcStats, new SpillStats, tmpDir = dir)
      }
      assert(dir.toFile.list().isEmpty)
    }
  }

  test("a sort that fails opening its runs for the merge closes the readers it opened") {
    assume(canListOpenFiles, "needs /proc/self/fd to list open files")
    withTmpDir { dir =>
      def runFiles = dir.toFile.list().toSet
      val rows = DataGen.randomRows(700, 2, 40, seed = 11).iterator
      // When the input ends, delete the run written since the last row was
      // read, so the final merge opens the other runs and then fails.
      var seen = Set.empty[String]
      val input = new Iterator[ERow] {
        override def hasNext: Boolean = rows.hasNext || {
          (runFiles -- seen).foreach(f => Files.delete(dir.resolve(f)))
          false
        }
        override def next(): ERow = { seen = runFiles; rows.next() }
      }
      intercept[java.io.IOException] {
        ExternalSort.sort(input, 2, 0, 300, new OvcStats, new SpillStats, tmpDir = dir)
      }
      assert(openUnder(dir).isEmpty)
      assert(dir.toFile.list().isEmpty)
    }
  }

  for (dedup <- Seq(false, true); fanIn <- Seq(2, 3)) {
    test(s"collected spilled sorts own their arrays and match the reference " +
         s"(dedup=$dedup, fanIn=$fanIn)") {
      val rows = DataGen.randomRows(1500, 3, 5, seed = 14, payloadArity = 2)
      val (out, _, spill) = run(rows, 3, memRows = 50, dedup, fanIn, payloadArity = 2)
      val sorted = Ref.sortCoded(rows) // stable: the first of equal keys survives dedup
      val expected = if (dedup) sorted.filterNot(r => Ovc.isDup(r.code)) else sorted
      assert(spill.mergeLevels >= 2)
      assert(out.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
             expected.map(r => (r.key.toVector, r.code, r.payload.toVector)))
      OvcInvariants.verifyChain(out, 3)
      assert(ownArrays(out), "rows of a spilled sort share a key or payload array")
    }
  }

  for (payloadArity <- Seq(0, 2)) {
    test(s"RunFile.reader returns what was written, each row with its own arrays " +
         s"(payloadArity=$payloadArity)") {
      withTmpDir { dir =>
        val rows = DataGen.refSortCoded(DataGen.randomRows(3000, 3, 6, seed = 15, payloadArity))
        val spill = new SpillStats
        val path = RunFile.write(dir, 3, payloadArity, rows.iterator, spill)
        val back = RunFile.reader(path, 3, payloadArity).toVector
        assert(back.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
               rows.map(r => (r.key.toVector, r.code, r.payload.toVector)))
        assert(ownArrays(back))
        assert(spill.rowsSpilled == 3000)
        assert(dir.toFile.list().isEmpty, "a drained reader deletes its run")
      }
    }
  }

  test("draining a spilled dedup sort allocates per row emitted, not per row read back") {
    val bean = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    assume(bean.isThreadAllocatedMemorySupported && bean.isThreadAllocatedMemoryEnabled)
    // 200,000 rows over 4,096 distinct keys in 25 runs of up to 8,192 rows:
    // the merge reads back ~87,000 rows and emits 4,096.
    val rows = DataGen.randomRows(200000, 3, 16, seed = 13)
    def drain(): (Long, Long, Long) = {
      val spill = new SpillStats
      val it = ExternalSort.sort(rows.iterator, 3, 0, 8192, new OvcStats, spill, dedup = true)
      var emitted, sum = 0L
      val before = bean.getCurrentThreadAllocatedBytes
      while (it.hasNext) { sum += it.next().key(2); emitted += 1 }
      val bytes = bean.getCurrentThreadAllocatedBytes - before
      assert(sum >= 0)
      (bytes, emitted, spill.rowsSpilled)
    }
    drain() // loads and compiles what the measured drain runs
    val (bytes, emitted, readBack) = drain()
    assert(emitted == Ref.distinctSorted(rows).size)
    assert(readBack >= 20 * emitted, s"the merge reads back only $readBack rows")
    // A key array and a row per emitted row are 80 B; 128 B per row plus
    // 256 KiB for closing the runs leaves room, yet per row read back it
    // allows under 12 B.
    val bound = 128L * emitted + (256L << 10)
    assert(bytes <= bound,
           s"drain allocated $bytes B for $emitted rows emitted, $readBack read back (bound $bound B)")
  }
}

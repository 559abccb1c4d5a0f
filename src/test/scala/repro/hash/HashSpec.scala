package repro.hash

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.TestFiles._
import repro.core._
import repro.sort.SpillStats

/** Hash-based baselines: grace hash aggregation and grace hash join. */
class HashSpec extends AnyFunSuite {

  for (seed <- 0 until 3; memGroups <- Seq(4, 50, 100000)) {
    test(s"hash group count matches reference (memGroups=$memGroups, seed=$seed)") {
      val rows = DataGen.randomRows(2000, 3, 4, seed)
      val spill = new SpillStats
      val stats = new OvcStats
      val out = HashAgg.groupCount(rows.iterator, 3, memGroups, spill, stats).toVector
      val expected = Ref.groupCount(rows, 3)
      assert(out.map(r => r.key.toVector -> r.payload(0)).toMap == expected)
      assert(out.size == expected.size)
    }
  }

  test("hash aggregation spills nothing when groups fit in memory") {
    val rows = DataGen.randomRows(5000, 2, 4, seed = 3) // 16 distinct keys
    val spill = new SpillStats
    val out = HashAgg.groupCount(rows.iterator, 2, 1000, spill, new OvcStats).toVector
    assert(out.size <= 16)
    assert(spill.rowsSpilled == 0)
  }

  test("hash aggregation under memory pressure spills and recurses correctly") {
    val rows = DataGen.randomRows(20000, 3, 12, seed = 4) // up to 1728 groups
    val spill = new SpillStats
    val out = HashAgg.groupCount(rows.iterator, 3, 100, spill, new OvcStats).toVector
    assert(out.map(r => r.key.toVector -> r.payload(0)).toMap == Ref.groupCount(rows, 3))
    assert(spill.rowsSpilled > 0)
  }

  test("hash aggregation charges N*K column accesses for hashing") {
    val rows = DataGen.randomRows(1000, 4, 5, seed = 5)
    val stats = new OvcStats
    HashAgg.groupCount(rows.iterator, 4, 100000, new SpillStats, stats).foreach(_ => ())
    assert(stats.hashColumnAccesses == 1000L * 4)
  }

  for (seed <- 0 until 3; memRows <- Seq(10, 200, 100000)) {
    test(s"hash semi join matches set intersection (memRows=$memRows, seed=$seed)") {
      val l = DataGen.randomRows(800, 2, 20, seed).map(_.key.toVector).distinct
        .map(k => ERow(k.toArray))
      val r = DataGen.randomRows(800, 2, 20, seed + 9).map(_.key.toVector).distinct
        .map(k => ERow(k.toArray))
      val spill = new SpillStats
      val out = HashJoin.semiJoin(r.iterator, l.iterator, 2, memRows, spill, new OvcStats).toVector
      val expected = l.map(_.key.toVector).toSet.intersect(r.map(_.key.toVector).toSet)
      assert(out.map(_.key.toVector).toSet == expected)
      assert(out.size == expected.size)
      if (memRows == 10) assert(spill.rowsSpilled > 0)
      if (memRows == 100000) assert(spill.rowsSpilled == 0)
    }
  }

  test("overflowing hash join spills both inputs roughly once each") {
    val l = (0 until 5000).map(i => ERow(Array(i.toLong, i.toLong))).toArray
    val r = (2500 until 7500).map(i => ERow(Array(i.toLong, i.toLong))).toArray
    val spill = new SpillStats
    val out = HashJoin.semiJoin(r.iterator, l.iterator, 2, 500, spill, new OvcStats).toVector
    assert(out.size == 2500)
    // Grace partitioning writes each build and probe row once at the top
    // level; small recursive overflows may add a little.
    assert(spill.rowsSpilled >= 10000L)
    assert(spill.rowsSpilled <= 2L * 10000L)
  }

  test("spilled hash partitions keep whole keys over the full Long domain") {
    val values = Array(Long.MinValue, -1L, 1L << 48, Long.MaxValue)
    val rnd = new scala.util.Random(6)
    def rows(n: Int) = Vector.fill(n)(ERow(Array.fill(3)(values(rnd.nextInt(values.length)))))
    val input = rows(3000) // up to 64 groups, 8 in memory
    val spill = new SpillStats
    val counts = HashAgg.groupCount(input.iterator, 3, 8, spill, new OvcStats).toVector
    assert(spill.rowsSpilled > 0)
    assert(counts.map(r => r.key.toVector -> r.payload(0)).toMap == Ref.groupCount(input, 3))
    assert(counts.size == Ref.groupCount(input, 3).size)

    val build = counts.map(r => ERow(r.key))
    val probe = rows(200).map(_.key.toVector).distinct.map(k => ERow(k.toArray))
    val joinSpill = new SpillStats
    val out = HashJoin.semiJoin(build.iterator, probe.iterator, 3, 4, joinSpill, new OvcStats).toVector
    assert(joinSpill.rowsSpilled > 0)
    val expected = probe.map(_.key.toVector).toSet.intersect(build.map(_.key.toVector).toSet)
    assert(out.map(_.key.toVector).toSet == expected)
    assert(out.size == expected.size)
  }

  test("closing a half-drained hash result deletes its unread partition files") {
    withTmpDir { dir =>
      def cleanedUp(): Unit = {
        assert(dir.toFile.list().isEmpty)
        if (canListOpenFiles) assert(openUnder(dir).isEmpty)
      }
      // 1,728 groups, 100 in memory: the rest spill to partitions, some of
      // which overflow again one level down.
      val rows = DataGen.randomRows(20000, 3, 12, seed = 4)
      val agg = HashAgg.groupCount(rows.iterator, 3, 100, new SpillStats, new OvcStats, tmpDir = dir)
      assert(dir.toFile.list().nonEmpty)
      (0 until 300).foreach(_ => agg.next()) // into the spilled partitions
      agg.close()
      cleanedUp()
      assert(!agg.hasNext)
      agg.close() // idempotent

      val l = (0 until 5000).map(i => ERow(Array(i.toLong, i.toLong)))
      val r = (2500 until 7500).map(i => ERow(Array(i.toLong, i.toLong)))
      val join = HashJoin.semiJoin(r.iterator, l.iterator, 2, 500, new SpillStats, new OvcStats, tmpDir = dir)
      assert(dir.toFile.list().nonEmpty)
      (0 until 1000).foreach(_ => join.next())
      join.close()
      cleanedUp()
      assert(!join.hasNext)
    }
  }

  test("a drained hash result leaves no partition files behind") {
    withTmpDir { dir =>
      val rows = DataGen.randomRows(20000, 3, 12, seed = 4)
      val spill = new SpillStats
      val out = HashAgg.groupCount(rows.iterator, 3, 100, spill, new OvcStats, tmpDir = dir).toVector
      assert(out.size == Ref.groupCount(rows, 3).size)
      val joined = HashJoin.semiJoin(out.iterator, out.iterator, 3, 100, spill, new OvcStats, tmpDir = dir).size
      assert(joined == out.size)
      assert(spill.rowsSpilled > 0)
      assert(dir.toFile.list().isEmpty)
    }
  }
}

package repro.sort

import java.io.{DataOutputStream, FileOutputStream}
import java.nio.file.{Files, Path}

import org.scalatest.funsuite.AnyFunSuite

import repro.TestFiles._
import repro.core._

/** The one row format of spill runs, hash partitions and OvcStore files. */
class RunFileSpec extends AnyFunSuite {

  private val HeaderBytes = 16 // magic and version, arity, payload arity, name count
  private val EndBytes = 1

  private def drain(r: RunFile.Reader): Vector[(Vector[Long], Long, Vector[Long])] = {
    val b = Vector.newBuilder[(Vector[Long], Long, Vector[Long])]
    while (r.advance()) b += ((r.key.toVector, r.code, r.payload.toVector))
    b.result()
  }

  private def rejected(body: => Any): String = intercept[IllegalArgumentException](body).getMessage

  test("a sorted run is stored prefix-truncated and read back with its codes") {
    withTmpDir { dir =>
      val rows = DataGen.refSortCoded(DataGen.randomRows(3000, 4, 5, seed = 41, payloadArity = 1))
      val spill = new SpillStats
      val path = RunFile.write(dir, 4, 1, rows.iterator, spill)
      // Per row: the offset byte, the key past the code's offset, the payload.
      val rowBytes = rows.map(r => 1L + 8L * (4 - r.offset(4)) + 8L).sum
      assert(Files.size(path) == HeaderBytes + rowBytes + EndBytes)
      assert(spill.bytesSpilled == Files.size(path))
      assert(rowBytes < rows.size * (1L + 8 * 4 + 8) / 2, "dense sorted keys share long prefixes")
      assert(drain(new RunFile.Cursor(path, 4, 1)) ==
             rows.map(r => (r.key.toVector, r.code, r.payload.toVector)))
    }
  }

  test("rows written at offset 0 keep their whole keys over the full Long domain") {
    withTmpDir { dir =>
      val values = Seq(Long.MinValue, -1L, 0L, 1L << 48, Long.MaxValue)
      val keys = for (a <- values; b <- values) yield Array(b, a) // unsorted
      val spill = new SpillStats
      val path = RunFile.spillRun(dir, 2, 1, spill) { w =>
        keys.zipWithIndex.foreach { case (k, i) => w.write(k, 0, Array(i.toLong)) }
      }
      assert(Files.size(path) == HeaderBytes + keys.size * (1 + 2 * 8 + 8) + EndBytes)
      assert(spill.rowsSpilled == keys.size && spill.runsWritten == 1)
      val back = drain(new RunFile.Cursor(path, 2, 1))
      assert(back.map(r => (r._1, r._3)) == keys.zipWithIndex.map { case (k, i) => (k.toVector, Vector(i.toLong)) })
    }
  }

  test("RunFile.write cuts a code's offset to the prefix the key shares with its predecessor") {
    withTmpDir { dir =>
      // Dummy code 0 claims every row duplicates its predecessor.
      val rows = Seq(Array(1L, 2L, 3L), Array(1L, 2L, 4L), Array(5L, 2L, 4L), Array(5L, 2L, 4L))
      val path = RunFile.write(dir, 3, 0, rows.iterator.map(k => CodedRow(k, 0L, ERow.NoPayload)), new SpillStats)
      val back = RunFile.reader(path, 3, 0).toVector
      assert(back.map(_.key.toVector) == rows.map(_.toVector))
      OvcInvariants.verifyChain(back, 3) // codes are rebuilt relative to the stored predecessor
    }
  }

  test("the writer rejects an arity its offset byte cannot hold, before it creates the file") {
    withTmpDir { dir =>
      val path = dir.resolve("wide.bin")
      val msg = rejected(new RunFile.Writer(path, RunFile.MaxArity + 1, 0))
      assert(msg.contains(s"arity ${RunFile.MaxArity + 1}"))
      assert(!Files.exists(path))
      rejected(RunFile.spillRun(dir, 300, 0, new SpillStats)(_ => ()))
      assert(dir.toFile.list().isEmpty, "a rejected spill run leaves no file")

      val key = Array.tabulate(RunFile.MaxArity)(_.toLong)
      val w = new RunFile.Writer(path, RunFile.MaxArity, 0)
      w.write(key, 0, ERow.NoPayload)
      w.write(key, RunFile.MaxArity, ERow.NoPayload)
      w.finish()
      assert(drain(new RunFile.Reader(path, RunFile.MaxArity, 0)).map(r => (r._1, r._2)) ==
             Vector((key.toVector, Ovc.initial(key)), (key.toVector, 0L)))
    }
  }

  test("the writer rejects a first row whose offset is not 0, and offsets outside [0, arity]") {
    withTmpDir { dir =>
      val w = new RunFile.Writer(dir.resolve("r.bin"), 3, 0)
      assert(rejected(w.write(Array(1L, 2L, 3L), 2, ERow.NoPayload)).contains("row 0"))
      w.write(Array(1L, 2L, 3L), 0, ERow.NoPayload)
      rejected(w.write(Array(1L, 2L, 3L), 4, ERow.NoPayload))
      rejected(w.write(Array(1L, 2L, 3L), -1, ERow.NoPayload))
      w.abort()
      assert(dir.toFile.list().isEmpty)
    }
  }

  private def run(dir: Path, arity: Int, payloadArity: Int): Path =
    RunFile.write(dir, arity, payloadArity,
                  DataGen.refSortCoded(DataGen.randomRows(10, arity, 3, seed = 42, payloadArity)).iterator,
                  new SpillStats)

  test("opening a run with the wrong arity fails naming the file") {
    withTmpDir { dir =>
      val path = run(dir, 3, 1)
      val msg = rejected(new RunFile.Cursor(path, 2, 1))
      assert(msg.contains(path.toString) && msg.contains("arity 3"))
      assert(rejected(RunFile.reader(path, 4, 1)).contains(path.toString))
      if (canListOpenFiles) assert(openUnder(dir).isEmpty, "a rejected file is closed")
    }
  }

  test("opening a run with the wrong payload arity fails naming the file") {
    withTmpDir { dir =>
      val path = run(dir, 3, 1)
      val msg = rejected(new RunFile.Reader(path, 3, 0))
      assert(msg.contains(path.toString) && msg.contains("payload arity 1"))
    }
  }

  test("opening a pre-codec OVC1 store file fails naming the file") {
    withTmpDir { dir =>
      // OvcStore's own format before the shared codec: "OVC1", arity, names, rows.
      val path = dir.resolve("part-00000.ovc")
      val out = new DataOutputStream(new FileOutputStream(path.toFile))
      try {
        out.writeInt(0x4f564331); out.writeInt(1); out.writeUTF("k")
        out.writeByte(1); out.writeByte(0); out.writeLong(7L); out.writeByte(0)
      } finally out.close()
      val msg = rejected(RunFile.header(path))
      assert(msg.contains(path.toString) && msg.contains("version 1"))
      assert(rejected(new RunFile.Reader(path, 1, 0)).contains(path.toString))
    }
  }

  test("opening a file that is not a row file fails naming the file") {
    withTmpDir { dir =>
      val text = Files.write(dir.resolve("notes.txt"), "not a run at all".getBytes("UTF-8"))
      val msg = rejected(new RunFile.Reader(text, 1, 0))
      assert(msg.contains(text.toString) && msg.contains("not a row file"))
      val empty = Files.createFile(dir.resolve("empty.bin"))
      assert(rejected(RunFile.header(empty)).contains(empty.toString))
    }
  }

  test("a Reader leaves its file in place; a Cursor deletes its run once drained or closed") {
    withTmpDir { dir =>
      val path = run(dir, 2, 0)
      val first = drain(new RunFile.Reader(path, 2, 0))
      assert(Files.exists(path))
      assert(drain(new RunFile.Reader(path, 2, 0)) == first)
      assert(drain(new RunFile.Cursor(path, 2, 0)) == first)
      assert(!Files.exists(path))

      val closed = run(dir, 2, 0)
      val c = new RunFile.Cursor(closed, 2, 0)
      assert(c.advance())
      c.close()
      assert(!Files.exists(closed))
      assert(!c.advance())
    }
  }
}

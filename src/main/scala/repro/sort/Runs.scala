package repro.sort

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream}
import java.nio.file.{Files, Path}

import repro.core.CodedRow

/** Spill accounting for external algorithms: the unit the paper's Figure 3
  * argues about is "rows spilled to temporary storage".
  */
final class SpillStats {
  var rowsSpilled: Long = 0L
  var runsWritten: Long = 0L
  var bytesSpilled: Long = 0L
  var mergeLevels: Int = 0

  def reset(): Unit = { rowsSpilled = 0; runsWritten = 0; bytesSpilled = 0; mergeLevels = 0 }

  def add(o: SpillStats): Unit = {
    rowsSpilled += o.rowsSpilled; runsWritten += o.runsWritten
    bytesSpilled += o.bytesSpilled; mergeLevels = math.max(mergeLevels, o.mergeLevels)
  }

  override def toString: String =
    s"SpillStats(rows=$rowsSpilled, runs=$runsWritten, bytes=$bytesSpilled, levels=$mergeLevels)"
}

/** Sorted runs spilled to real local files (fixed-arity key, fixed-arity
  * payload, packed OVC per row). Each row is prefixed with a marker byte so
  * readers detect end-of-run without a length header.
  */
object RunFile {

  def newTempDir(prefix: String): Path = {
    val d = Files.createTempDirectory(prefix)
    d.toFile.deleteOnExit()
    d
  }

  /** Writes one run to a new file under `dir`, row by row, straight from the
    * caller's key, code and payload: no row object per row. Call `finish`
    * after the last row.
    */
  final class Writer(dir: Path, arity: Int, payloadArity: Int, spill: SpillStats) {
    val path: Path = Files.createTempFile(dir, "run", ".bin")
    path.toFile.deleteOnExit()
    private[this] val out =
      new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile), 1 << 16))
    private[this] var n = 0L

    def write(key: Array[Long], code: Long, payload: Array[Long]): Unit = {
      out.writeByte(1)
      var i = 0
      while (i < arity) { out.writeLong(key(i)); i += 1 }
      out.writeLong(code)
      i = 0
      while (i < payloadArity) { out.writeLong(payload(i)); i += 1 }
      n += 1
    }

    /** Ends the run and books it in `spill`; returns the file path. */
    def finish(): Path = {
      try out.writeByte(0) finally out.close()
      spill.rowsSpilled += n
      spill.runsWritten += 1
      spill.bytesSpilled += Files.size(path)
      path
    }

    /** Gives up the run: closes and deletes the file, books nothing. */
    def abort(): Unit = {
      try out.close() finally Files.deleteIfExists(path)
    }
  }

  /** Write `rows` as one run; returns the file path. Updates `spill`. */
  def write(dir: Path, arity: Int, payloadArity: Int,
            rows: Iterator[CodedRow], spill: SpillStats): Path = {
    val w = new Writer(dir, arity, payloadArity, spill)
    try {
      while (rows.hasNext) { val r = rows.next(); w.write(r.key, r.code, r.payload) }
    } catch { case t: Throwable => w.abort(); throw t }
    w.finish()
  }

  /** Stream a run back; the file is deleted once fully consumed or closed. */
  def reader(path: Path, arity: Int, payloadArity: Int): CloseableIterator[CodedRow] =
    new CloseableIterator[CodedRow] {
      private[this] val in =
        new DataInputStream(new BufferedInputStream(new FileInputStream(path.toFile), 1 << 16))
      private[this] var done = false
      private[this] var pending: CodedRow = null

      private def load(): Unit =
        if (!done && pending == null) {
          if (in.readByte() == 0) close()
          else {
            val key = new Array[Long](arity)
            var i = 0
            while (i < arity) { key(i) = in.readLong(); i += 1 }
            val code = in.readLong()
            val pay = if (payloadArity == 0) Array.emptyLongArray else new Array[Long](payloadArity)
            i = 0
            while (i < payloadArity) { pay(i) = in.readLong(); i += 1 }
            pending = CodedRow(key, code, pay)
          }
        }

      override def hasNext: Boolean = { load(); pending != null }
      override def next(): CodedRow = {
        load()
        val r = pending; pending = null
        if (r == null) throw new NoSuchElementException("run exhausted")
        r
      }
      override def close(): Unit =
        if (!done) {
          done = true
          pending = null
          try in.close() finally Files.deleteIfExists(path)
        }
    }
}

/** An iterator that holds resources, such as spill files, until it is
  * drained or closed. `close` is idempotent.
  */
trait CloseableIterator[+A] extends Iterator[A] with AutoCloseable

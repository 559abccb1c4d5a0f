package repro.sort

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream}
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

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

  /** Reads a run back one row at a time into a key and a payload array it
    * owns and reuses, so reading a row allocates nothing: the one row decoder
    * behind [[reader]] and the sort's merges. The file is deleted once the
    * cursor is exhausted or closed; `close` is idempotent.
    */
  final class Cursor(path: Path, arity: Int, payloadArity: Int) extends RowCursor with AutoCloseable {
    private[this] val in =
      new DataInputStream(new BufferedInputStream(new FileInputStream(path.toFile), 1 << 16))
    override val key: Array[Long] = new Array[Long](arity)
    override val payload: Array[Long] =
      if (payloadArity == 0) Array.emptyLongArray else new Array[Long](payloadArity)
    private[this] var c = 0L
    private[this] var open = true

    override def code: Long = c

    override def advance(): Boolean =
      open && {
        if (in.readByte() == 0) { close(); false }
        else {
          var i = 0
          while (i < arity) { key(i) = in.readLong(); i += 1 }
          c = in.readLong()
          i = 0
          while (i < payloadArity) { payload(i) = in.readLong(); i += 1 }
          true
        }
      }

    override def close(): Unit =
      if (open) {
        open = false
        try in.close() finally Files.deleteIfExists(path)
      }
  }

  /** Streams a run back as rows with their own arrays; the file is deleted
    * once fully consumed or closed.
    */
  def reader(path: Path, arity: Int, payloadArity: Int): CloseableIterator[CodedRow] =
    new CloseableIterator[CodedRow] {
      private[this] val cur = new Cursor(path, arity, payloadArity)
      private[this] var ready = false // cur holds a row not yet returned

      override def hasNext: Boolean = ready || { ready = cur.advance(); ready }
      override def next(): CodedRow = {
        if (!hasNext) throw new NoSuchElementException("run exhausted")
        ready = false
        CodedRow.copyOf(cur.key, cur.code, cur.payload)
      }
      override def close(): Unit = { ready = false; cur.close() }
    }
}

/** The spill files of one operator: the directory they go to (a new temp dir,
  * made on first use, unless `tmpDir` is given), the runs written there and
  * the cursors and readers opened on them. [[delete]] closes those and
  * deletes the runs, then the directory if it made it.
  */
final class SpillFiles(tmpDir: Path, prefix: String, arity: Int, payloadArity: Int) {
  private[this] var ownDir: Path = null
  private[this] val written = ArrayBuffer.empty[Path]
  private[this] val opened = ArrayBuffer.empty[AutoCloseable]

  def dir: Path = {
    if (tmpDir != null) tmpDir
    else {
      if (ownDir == null) ownDir = RunFile.newTempDir(prefix)
      ownDir
    }
  }

  /** A writer for a new run, deleted with the others. */
  def writer(spill: SpillStats): RunFile.Writer = {
    val w = new RunFile.Writer(dir, arity, payloadArity, spill)
    written += w.path
    w
  }

  /** Writes `rows` as one run; returns its path. */
  def write(rows: Iterator[CodedRow], spill: SpillStats): Path = {
    val path = RunFile.write(dir, arity, payloadArity, rows, spill)
    written += path
    path
  }

  def cursor(run: Path): RunFile.Cursor = track(new RunFile.Cursor(run, arity, payloadArity))

  def reader(run: Path): CloseableIterator[CodedRow] = track(RunFile.reader(run, arity, payloadArity))

  private def track[C <: AutoCloseable](c: C): C = { opened += c; c }

  /** Closes every cursor and reader, then deletes the runs and the own dir. */
  def delete(): Unit = {
    try opened.foreach(_.close())
    finally written.foreach(Files.deleteIfExists)
    if (ownDir != null) Files.deleteIfExists(ownDir)
  }
}

/** An iterator that holds resources, such as spill files, until it is
  * drained or closed. `close` is idempotent.
  */
trait CloseableIterator[+A] extends Iterator[A] with AutoCloseable

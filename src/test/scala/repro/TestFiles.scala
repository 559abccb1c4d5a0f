package repro

import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._
import scala.util.Try

import repro.core.CodedRow

/** Helpers for tests that check spill-file cleanup and row ownership. */
object TestFiles {

  /** Runs `body` with a new temp dir, then deletes the dir and what is left in it. */
  def withTmpDir(body: Path => Unit): Unit = {
    val dir = Files.createTempDirectory("ovc-spec")
    try body(dir)
    finally {
      Option(dir.toFile.listFiles).foreach(_.foreach(_.delete()))
      Files.deleteIfExists(dir)
    }
  }

  /** Whether this process can list its open files. */
  def canListOpenFiles: Boolean = Files.isDirectory(Paths.get("/proc/self/fd"))

  /** Files under `dir` this process holds open, deleted ones included. */
  def openUnder(dir: Path): Seq[Path] = {
    val links = Files.list(Paths.get("/proc/self/fd"))
    try links.iterator.asScala.flatMap(fd => Try(Files.readSymbolicLink(fd)).toOption)
      .filter(_.startsWith(dir)).toVector
    finally links.close()
  }

  /** True when no two rows share a key array or a non-empty payload array. */
  def ownArrays(rows: Seq[CodedRow]): Boolean = {
    val seen = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[AnyRef, java.lang.Boolean])
    rows.forall(r => seen.add(r.key) && (r.payload.isEmpty || seen.add(r.payload)))
  }
}

/**
 * @file
 * Append-only line log: the one crash-recovery rule behind the
 * completion journal, the campaign claims file and the telemetry event
 * part files (DESIGN.md §5b).
 *
 * A record is one line written with a single O_APPEND write(2); records
 * are far below PIPE_BUF, so concurrent appenders (threads, or forked
 * processes sharing the descriptor) never interleave. A kill loses at
 * most the record being written: a final line without its '\n'. The
 * reader drops that fragment, and the writer cuts it off on open, so a
 * resumed writer never glues its first record onto it. What a complete
 * line means, and whether a malformed one is fatal, is the caller's.
 */

#ifndef DGSIM_COMMON_LINELOG_HH
#define DGSIM_COMMON_LINELOG_HH

#include <string>
#include <vector>

namespace dgsim
{

/** An O_APPEND line writer over one file descriptor. */
class LineLog
{
  public:
    /**
     * Open @p path for appending, creating it; fatal when unopenable.
     * A regular file not ending in '\n' is cut back to just after its
     * last '\n'. So construct only while no other process appends to
     * the file; processes forked afterwards may share the descriptor.
     */
    explicit LineLog(const std::string &path);
    ~LineLog();

    LineLog(const LineLog &) = delete;
    LineLog &operator=(const LineLog &) = delete;

    /** Append @p line plus '\n' in one write(2), retrying on EINTR.
     * Returns 0, or the errno of the failed write. */
    int append(std::string line) const;

    /** fsync(2) the file. Returns 0, or the errno of the failure. */
    int sync() const;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_;
};

/**
 * The complete, non-empty lines of the log at @p path, without their
 * '\n'. An unterminated final fragment is dropped with one warning; a
 * missing file has no lines.
 */
std::vector<std::string> readLogLines(const std::string &path);

} // namespace dgsim

#endif // DGSIM_COMMON_LINELOG_HH

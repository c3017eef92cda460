#include "common/linelog.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/log.hh"

namespace dgsim
{

LineLog::LineLog(const std::string &path)
    : path_(path),
      fd_(::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644))
{
    if (fd_ < 0)
        DGSIM_FATAL("cannot open '" + path + "' for appending: " +
                    std::strerror(errno));
    // Only a regular file can hold a torn tail (or be truncated).
    struct ::stat st;
    if (::fstat(fd_, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size == 0)
        return;
    std::ifstream in(path, std::ios::binary);
    in.seekg(-1, std::ios::end);
    const int last = in.get();
    if (!in)
        DGSIM_FATAL("cannot read '" + path + "' to check its last line");
    if (last == '\n')
        return;
    in.seekg(0);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    // npos + 1 == 0: a file with no '\n' at all is one torn record.
    const std::size_t keep = text.rfind('\n') + 1;
    DGSIM_WARN("'" + path + "': cutting off a " +
               std::to_string(text.size() - keep) +
               "-byte torn final line before appending");
    if (::ftruncate(fd_, static_cast<off_t>(keep)) != 0)
        DGSIM_FATAL("cannot truncate '" + path + "': " +
                    std::strerror(errno));
}

LineLog::~LineLog()
{
    ::close(fd_);
}

int
LineLog::append(std::string line) const
{
    line += '\n';
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + written, line.size() - written);
        if (n < 0 && errno != EINTR)
            return errno;
        if (n > 0)
            written += static_cast<std::size_t>(n);
    }
    return 0;
}

int
LineLog::sync() const
{
    return ::fsync(fd_) == 0 ? 0 : errno;
}

std::vector<std::string>
readLogLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        // End of file before a '\n': the record a kill cut short.
        if (in.eof()) {
            DGSIM_WARN("'" + path + "': dropping a " +
                       std::to_string(line.size()) +
                       "-byte truncated final line");
            break;
        }
        if (!line.empty())
            lines.push_back(std::move(line));
    }
    return lines;
}

} // namespace dgsim

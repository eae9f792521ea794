/**
 * @file
 * Golden snapshot files under tests/golden.
 *
 * One place knows where the snapshots live, how regeneration is
 * switched on and which command regenerates them. With
 * MSIM_REGEN_GOLDEN set to anything but "" or "0", a golden test
 * writes what it measured instead of comparing:
 *
 *     cd build && MSIM_REGEN_GOLDEN=1 ./tests/<test binary>
 *
 * which rewrites the file in the source tree. Every mismatch message
 * names that command (regenHint()).
 */

#ifndef MSIM_TESTS_GOLDEN_FILE_HH
#define MSIM_TESTS_GOLDEN_FILE_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace msim {

/** One snapshot file and the test binary that regenerates it. */
class GoldenFile
{
  public:
    GoldenFile(const std::string &name, std::string binary)
        : path_(std::string(MSIM_GOLDEN_DIR) + "/" + name),
          binary_(std::move(binary))
    {
    }

    /** @return true when the tests should rewrite their snapshots. */
    static bool
    regenerating()
    {
        const char *env = std::getenv("MSIM_REGEN_GOLDEN");
        return env && *env && std::string(env) != "0";
    }

    const std::string &path() const { return path_; }

    /** @return "regenerate with <command>", for failure messages. */
    std::string
    regenHint() const
    {
        return "regenerate with cd build && MSIM_REGEN_GOLDEN=1 "
               "./tests/" + binary_;
    }

    /**
     * @return the file's bytes; a missing file reads as "" and,
     * unless regenerating, fails the calling test.
     */
    std::string
    read() const
    {
        std::ifstream in(path_, std::ios::binary);
        if (!in) {
            if (!regenerating())
                ADD_FAILURE() << path_ << " missing; " << regenHint();
            return "";
        }
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

    /** Replace the file with @p text. */
    void
    write(const std::string &text) const
    {
        std::ofstream out(path_, std::ios::binary);
        out << text;
        if (!out.good())
            ADD_FAILURE() << "cannot write golden file " << path_;
        else
            std::printf("regenerated %s\n", path_.c_str());
    }

  private:
    std::string path_;
    std::string binary_;
};

} // namespace msim

#endif // MSIM_TESTS_GOLDEN_FILE_HH

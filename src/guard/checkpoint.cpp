#include "guard/checkpoint.hpp"

#include <sstream>

#include "guard/fault.hpp"
#include "obs/log.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::guard {

Checkpoint::Checkpoint(const std::string &path, bool resume) : path_(path)
{
    if (resume)
        loadExisting();
    out_.open(path_, resume ? (std::ios::out | std::ios::app)
                            : (std::ios::out | std::ios::trunc));
    if (!out_)
        throw IoError("cannot open checkpoint file " + path_);
    if (sealNeeded_) {
        // The file ends mid-line (a killed writer).  Seal it so the
        // first append starts a fresh line instead of merging with —
        // and thereby losing — the torn one.
        out_ << '\n';
        out_.flush();
    }
    LP_LOG_INFO("checkpoint %s: %zu cell(s) loaded", path_.c_str(),
                loaded_);
}

std::size_t
Checkpoint::loadFrom(std::istream &in, const std::string &name)
{
    const std::size_t before = cells_.size();
    std::string line;
    unsigned lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::string err;
        obs::Json rec = obs::Json::parse(line, &err);
        if (!err.empty() || !rec.isObject() || !rec.contains("key") ||
            !rec.contains("cell")) {
            // A torn final line (EOF hit mid-record) is the expected
            // residue of a killed writer: the cell was in flight, it
            // just runs again.  A malformed *interior* line means the
            // file was damaged after the fact — still skipped (the
            // cell re-runs; never fail, never double-run), but worth
            // the louder diagnostic.
            if (in.peek() == std::char_traits<char>::eof())
                LP_LOG_WARN("checkpoint %s: final line %u is torn "
                            "(killed mid-append?); its cell will be "
                            "re-run",
                            name.c_str(), lineNo);
            else
                LP_LOG_WARN("checkpoint %s: skipping malformed "
                            "interior line %u (file damaged?); its "
                            "cell will be re-run",
                            name.c_str(), lineNo);
            ++skipped_;
            continue;
        }
        cells_[rec.at("key").asString()] = rec.at("cell");
    }
    return cells_.size() - before;
}

void
Checkpoint::loadExisting()
{
    std::ifstream in(path_);
    if (!in)
        return; // nothing to resume from: first run with --resume
    loadFrom(in, path_);
    loaded_ = cells_.size();

    std::ifstream tail(path_, std::ios::binary);
    if (tail) {
        tail.seekg(0, std::ios::end);
        if (tail.tellg() > 0) {
            tail.seekg(-1, std::ios::end);
            char last = '\n';
            tail.get(last);
            sealNeeded_ = last != '\n';
        }
    }
}

std::size_t
Checkpoint::absorb(const std::string &otherPath)
{
    std::ifstream in(otherPath);
    if (!in) {
        LP_LOG_WARN("checkpoint %s: cannot read %s to absorb; its "
                    "cells will be re-run",
                    path_.c_str(), otherPath.c_str());
        return 0;
    }
    std::lock_guard<prof::TimedMutex> lock(mu_);
    std::size_t absorbed = loadFrom(in, otherPath);
    LP_LOG_INFO("checkpoint %s: absorbed %zu cell(s) from %s",
                path_.c_str(), absorbed, otherPath.c_str());
    return absorbed;
}

std::string
Checkpoint::cellKey(const std::string &config, const std::string &suite,
                    const std::string &program, std::uint64_t seed)
{
    return config + "|" + suite + "|" + program + "|" +
           std::to_string(seed);
}

const obs::Json *
Checkpoint::find(const std::string &key) const
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    auto it = cells_.find(key);
    return it == cells_.end() ? nullptr : &it->second;
}

void
Checkpoint::record(const std::string &key, const obs::Json &cell)
{
    faultPoint("io");
    // The bytes of {"v":1,"key":<key>,"cell":<cell>} dumped compact,
    // without copying the cell into a tree.
    std::string line = "{\"v\":1,\"key\":" + obs::Json(key).dump() +
                       ",\"cell\":" + cell.dump() + "}";
    std::lock_guard<prof::TimedMutex> lock(mu_);
    out_ << line << '\n';
    out_.flush();
    if (!out_)
        throw IoError("cannot append to checkpoint file " + path_);
}

std::size_t
Checkpoint::loadedCells() const
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    return loaded_;
}

std::size_t
Checkpoint::skippedLines() const
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    return skipped_;
}

} // namespace lp::guard

#include "trace/trace_sink.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace msim {

// --------------------------------------------------------------------
// ChromeTraceSink
// --------------------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : os_(&os)
{
    *os_ << "{\"traceEvents\":[\n";
}

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : file_(path), os_(&file_)
{
    fatalIf(!file_, "cannot open trace output file ", path);
    *os_ << "{\"traceEvents\":[\n";
}

ChromeTraceSink::~ChromeTraceSink()
{
    finish();
}

void
ChromeTraceSink::comma()
{
    if (!first_)
        *os_ << ",\n";
    first_ = false;
}

void
ChromeTraceSink::writeCommon(const TraceEvent &event)
{
    *os_ << "{\"name\":\"";
    *os_ << json::escape(event.name);
    *os_ << "\",\"cat\":\"" << traceCatName(event.cat) << "\",\"ph\":\""
         << char(event.ph) << "\",\"ts\":" << event.ts
         << ",\"pid\":" << event.pid << ",\"tid\":" << event.tid;
}

void
ChromeTraceSink::write(const TraceEvent &event)
{
    comma();
    writeCommon(event);
    if (event.ph == TracePhase::kComplete)
        *os_ << ",\"dur\":" << event.dur;
    if (event.ph == TracePhase::kInstant)
        *os_ << ",\"s\":\"t\"";  // instant scope: thread
    if (!event.key1.empty()) {
        *os_ << ",\"args\":{\"";
        *os_ << json::escape(event.key1);
        *os_ << "\":" << event.val1;
        if (!event.key2.empty()) {
            *os_ << ",\"";
            *os_ << json::escape(event.key2);
            *os_ << "\":" << event.val2;
        }
        *os_ << "}";
    }
    *os_ << "}";
}

void
ChromeTraceSink::threadName(std::uint32_t tid, std::string_view name)
{
    comma();
    *os_ << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
         << tid << ",\"args\":{\"name\":\"";
    *os_ << json::escape(name);
    *os_ << "\"}}";
}

void
ChromeTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    *os_ << "\n],\"displayTimeUnit\":\"ns\"}\n";
    os_->flush();
}

// --------------------------------------------------------------------
// CsvTraceSink
// --------------------------------------------------------------------

CsvTraceSink::CsvTraceSink(std::ostream &os) : os_(&os)
{
    header();
}

CsvTraceSink::CsvTraceSink(const std::string &path)
    : file_(path), os_(&file_)
{
    fatalIf(!file_, "cannot open trace output file ", path);
    header();
}

void
CsvTraceSink::header()
{
    *os_ << "ph,ts,dur,pid,tid,cat,name,key1,val1,key2,val2\n";
}

void
CsvTraceSink::write(const TraceEvent &event)
{
    *os_ << char(event.ph) << ',' << event.ts << ',' << event.dur << ','
         << event.pid << ',' << event.tid << ','
         << traceCatName(event.cat) << ',' << event.name << ','
         << event.key1 << ',' << event.val1 << ',' << event.key2 << ','
         << event.val2 << '\n';
}

void
CsvTraceSink::finish()
{
    os_->flush();
}

// --------------------------------------------------------------------
// Factory
// --------------------------------------------------------------------

std::unique_ptr<TraceSink>
makeTraceSink(const TraceConfig &config)
{
    if (config.sink == "null")
        return std::make_unique<NullTraceSink>();
    if (config.sink == "chrome")
        return std::make_unique<ChromeTraceSink>(config.path);
    if (config.sink == "csv")
        return std::make_unique<CsvTraceSink>(config.path);
    fatal("unknown trace sink kind \"", config.sink,
          "\" (expected chrome, csv, or null)");
}

} // namespace msim

# Kill-and-resume check for cad_stream. Runs the stream three times: once
# uninterrupted, once stopped by --max_snapshots at an interval checkpoint
# (a simulated kill: the open window is not flushed), and once resumed from
# that checkpoint. The two parts, concatenated, must equal the uninterrupted
# report byte for byte, and the checkpoint must carry the expected format
# version (the byte after the 7-byte magic).
#
#   cmake -DCAD_STREAM=path/to/cad_stream -DWORK_DIR=dir -DEXPECT_VERSION=1
#         "-DARGS=--events|ev.txt|--window|1|..."
#         -P tests/stream_resume_check.cmake
#
# ARGS separates its arguments with '|' so the list survives add_test.

string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_stream)
  execute_process(COMMAND "${CAD_STREAM}" ${args} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr)
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR "cad_stream ${ARGN}: exit status '${code}'; "
                        "stderr:\n${stderr}")
  endif()
endfunction()

run_stream(--output "${WORK_DIR}/full.csv")
run_stream(--output "${WORK_DIR}/part1.csv" --checkpoint "${WORK_DIR}/ck.bin"
           --checkpoint_every 10 --max_snapshots 20)
run_stream(--output "${WORK_DIR}/part2.csv" --resume_from "${WORK_DIR}/ck.bin")

file(READ "${WORK_DIR}/full.csv" full)
file(READ "${WORK_DIR}/part1.csv" part1)
file(READ "${WORK_DIR}/part2.csv" part2)
if(part2 STREQUAL "")
  message(FATAL_ERROR "the resumed run reported nothing; the check is vacuous")
endif()
if(NOT "${part1}${part2}" STREQUAL "${full}")
  message(FATAL_ERROR "part1.csv + part2.csv differs from full.csv in "
                      "${WORK_DIR}")
endif()
file(READ "${WORK_DIR}/ck.bin" version OFFSET 7 LIMIT 1 HEX)
if(NOT version STREQUAL "0${EXPECT_VERSION}")
  message(FATAL_ERROR "checkpoint format byte is 0x${version}, want "
                      "${EXPECT_VERSION}")
endif()

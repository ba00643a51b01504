"""CrossFTP server stand-in: four releases, 1.05 through 1.08.

The change profile of each release mirrors Table 4 of the paper:

* **1.06** — adds four classes (command parsing, permissions, banner,
  transfer log), deletes one (``Greeting``), adds a field to
  ``RequestHandler`` and reworks a few method bodies.
* **1.07** — a configuration/statistics release: three changed classes,
  five new fields, new ``SIZE``/``SYST`` handlers, many body tweaks.
* **1.08** — restructures ``RequestHandler.run()`` (idle handling) and
  drops the transfer log; because every FTP session runs ``run()`` for its
  whole lifetime, this update only applies when the server is idle —
  the paper's §4.4 observation.

Architecturally the server spawns one handler thread per connection
(``Sys.spawn``), unlike the single-threaded JavaEmailServer processors —
the two failure modes the paper observes (always-on-stack accept loops vs
per-session handler methods) come from exactly this difference.
"""

FTP_PORT = 2121

# ---------------------------------------------------------------------------
# shared fragments

# FtpServer.main is on the stack for the server's whole lifetime, so its
# bytecode is identical in every release (any change to it would make the
# release un-applicable, as the paper's failing updates show). It still
# references RequestHandler/Stats, so class updates to those make it a
# category-2 method that OSR rescues.
_SERVER = """
class FtpServer {
    static void main() {
        FtpConfig.load();
        int lfd = Net.listen(2121);
        Sys.print("CrossFTP server ready");
        while (true) {
            int fd = Net.accept(lfd);
            Stats.connections = Stats.connections + 1;
            Sys.spawn(new RequestHandler(fd));
        }
    }
}
"""

_CONFIG_105 = """
class FtpConfig {
    static string rootDir;
    static bool anonymousAllowed;
    static void load() {
        FtpConfig.rootDir = "/srv/ftp";
        FtpConfig.anonymousAllowed = true;
        if (!Files.exists("/srv/ftp/readme.txt")) {
            Files.write("/srv/ftp/readme.txt", "welcome to crossftp");
        }
        if (!Files.exists("/srv/ftp/.index")) {
            Files.write("/srv/ftp/.index", "readme.txt");
        }
    }
}
"""

_STATS_105 = """
class Stats {
    static int connections;
    static int commands;
}
"""

_USERS_105 = """
class FtpUser {
    string name;
    string password;
    string home;
    FtpUser(string n, string p, string h) {
        this.name = n;
        this.password = p;
        this.home = h;
    }
}
class UserStore {
    static FtpUser[] users;
    static void init() {
        UserStore.users = new FtpUser[2];
        UserStore.users[0] = new FtpUser("alice", "xyzzy", "/srv/ftp");
        UserStore.users[1] = new FtpUser("anonymous", "", "/srv/ftp");
    }
    static FtpUser lookup(string name) {
        if (UserStore.users == null) { UserStore.init(); }
        for (int i = 0; i < UserStore.users.length; i = i + 1) {
            if (UserStore.users[i].name == name) { return UserStore.users[i]; }
        }
        return null;
    }
}
"""

_GREETING_105 = """
class Greeting {
    static string banner() { return "220 CrossFTP 1.05 ready"; }
}
"""

_HANDLER_105 = """
class RequestHandler {
    int fd;
    FtpUser user;
    bool loggedIn;
    string cwd;
    string pendingUser;
    RequestHandler(int fd0) {
        this.fd = fd0;
        this.cwd = "/";
    }
    void run() {
        Net.write(fd, Greeting.banner() + "\\r\\n");
        bool open = true;
        while (open) {
            string line = Net.readLine(fd);
            if (line == null) { open = false; }
            else {
                Stats.commands = Stats.commands + 1;
                open = dispatch(line);
            }
        }
        Net.close(fd);
    }
    bool dispatch(string line) {
        string cmd = line;
        string arg = "";
        int space = line.indexOf(" ");
        if (space >= 0) {
            cmd = line.substring(0, space);
            arg = line.substring(space + 1);
        }
        cmd = cmd.toUpperCase();
        if (cmd == "USER") { return doUser(arg); }
        if (cmd == "PASS") { return doPass(arg); }
        if (cmd == "PWD") { Net.write(fd, "257 \\"" + cwd + "\\"\\r\\n"); return true; }
        if (cmd == "CWD") { cwd = arg; Net.write(fd, "250 okay\\r\\n"); return true; }
        if (cmd == "NOOP") { Net.write(fd, "200 okay\\r\\n"); return true; }
        if (cmd == "LIST") { return doList(); }
        if (cmd == "RETR") { return doRetr(arg); }
        if (cmd == "STOR") { return doStor(arg); }
        if (cmd == "QUIT") { Net.write(fd, "221 goodbye\\r\\n"); return false; }
        Net.write(fd, "502 command not implemented\\r\\n");
        return true;
    }
    bool doUser(string name) {
        this.pendingUser = name;
        Net.write(fd, "331 password required for " + name + "\\r\\n");
        return true;
    }
    bool doPass(string pass) {
        FtpUser candidate = UserStore.lookup(pendingUser);
        if (candidate != null && (candidate.password == pass ||
                (candidate.name == "anonymous" && FtpConfig.anonymousAllowed))) {
            this.user = candidate;
            this.loggedIn = true;
            Net.write(fd, "230 user " + candidate.name + " logged in\\r\\n");
        } else {
            Net.write(fd, "530 login incorrect\\r\\n");
        }
        return true;
    }
    bool doList() {
        if (!loggedIn) { Net.write(fd, "530 not logged in\\r\\n"); return true; }
        string index = Files.read(FtpConfig.rootDir + "/.index");
        if (index == null) { index = ""; }
        Net.write(fd, "150 listing follows\\r\\n" + index + "\\r\\n226 done\\r\\n");
        return true;
    }
    bool doRetr(string name) {
        if (!loggedIn) { Net.write(fd, "530 not logged in\\r\\n"); return true; }
        string content = Files.read(FtpConfig.rootDir + "/" + name);
        if (content == null) {
            Net.write(fd, "550 no such file\\r\\n");
        } else {
            Net.write(fd, "150 opening data\\r\\n" + content + "\\r\\n226 transfer complete\\r\\n");
        }
        return true;
    }
    bool doStor(string name) {
        if (!loggedIn) { Net.write(fd, "530 not logged in\\r\\n"); return true; }
        string data = Net.readLine(fd);
        if (data == null) { data = ""; }
        Files.write(FtpConfig.rootDir + "/" + name, data);
        Net.write(fd, "226 stored " + name + "\\r\\n");
        return true;
    }
}
"""

VERSION_105 = "\n".join(
    [_SERVER, _CONFIG_105, _STATS_105, _USERS_105, _GREETING_105, _HANDLER_105]
)

# ---------------------------------------------------------------------------
# 1.06: +CommandParser, +PermissionChecker, +WelcomeBanner, +TransferLog;
# -Greeting; RequestHandler gains transferCount; dispatch/doRetr/doStor
# bodies reworked to use the new classes.

_PARSER_106 = """
class FtpCommand {
    string verb;
    string argument;
    FtpCommand(string v, string a) { this.verb = v; this.argument = a; }
}
class CommandParser {
    static FtpCommand parse(string line) {
        string cmd = line;
        string arg = "";
        int space = line.indexOf(" ");
        if (space >= 0) {
            cmd = line.substring(0, space);
            arg = line.substring(space + 1);
        }
        return new FtpCommand(cmd.toUpperCase(), arg.trim());
    }
}
class PermissionChecker {
    static bool canRead(FtpUser user, string path) {
        return user != null;
    }
    static bool canWrite(FtpUser user, string path) {
        return user != null && user.name != "anonymous";
    }
}
class TransferLog {
    static int transfers;
    static void record(string name, int size) {
        TransferLog.transfers = TransferLog.transfers + 1;
    }
}
"""


_BANNER_106 = """
class WelcomeBanner {
    static string banner() { return "220 CrossFTP 1.06 ready"; }
}
"""

_BANNER_107 = """
class WelcomeBanner {
    static string banner() { return "220 CrossFTP 1.07 ready"; }
}
"""


_HANDLER_106 = """
class RequestHandler {
    int fd;
    FtpUser user;
    bool loggedIn;
    string cwd;
    string pendingUser;
    int transferCount;
    RequestHandler(int fd0) {
        this.fd = fd0;
        this.cwd = "/";
    }
    void run() {
        Net.write(fd, WelcomeBanner.banner() + "\\r\\n");
        bool open = true;
        while (open) {
            string line = Net.readLine(fd);
            if (line == null) { open = false; }
            else {
                Stats.commands = Stats.commands + 1;
                open = dispatch(line);
            }
        }
        Net.close(fd);
    }
    bool dispatch(string line) {
        FtpCommand command = CommandParser.parse(line);
        string cmd = command.verb;
        string arg = command.argument;
        if (cmd == "USER") { return doUser(arg); }
        if (cmd == "PASS") { return doPass(arg); }
        if (cmd == "PWD") { Net.write(fd, "257 \\"" + cwd + "\\"\\r\\n"); return true; }
        if (cmd == "CWD") { cwd = arg; Net.write(fd, "250 okay\\r\\n"); return true; }
        if (cmd == "NOOP") { Net.write(fd, "200 okay\\r\\n"); return true; }
        if (cmd == "LIST") { return doList(); }
        if (cmd == "RETR") { return doRetr(arg); }
        if (cmd == "STOR") { return doStor(arg); }
        if (cmd == "QUIT") { Net.write(fd, "221 goodbye\\r\\n"); return false; }
        Net.write(fd, "502 command not implemented\\r\\n");
        return true;
    }
    bool doUser(string name) {
        this.pendingUser = name;
        Net.write(fd, "331 password required for " + name + "\\r\\n");
        return true;
    }
    bool doPass(string pass) {
        FtpUser candidate = UserStore.lookup(pendingUser);
        if (candidate != null && (candidate.password == pass ||
                (candidate.name == "anonymous" && FtpConfig.anonymousAllowed))) {
            this.user = candidate;
            this.loggedIn = true;
            Net.write(fd, "230 user " + candidate.name + " logged in\\r\\n");
        } else {
            Net.write(fd, "530 login incorrect\\r\\n");
        }
        return true;
    }
    bool doList() {
        if (!loggedIn) { Net.write(fd, "530 not logged in\\r\\n"); return true; }
        string index = Files.read(FtpConfig.rootDir + "/.index");
        if (index == null) { index = ""; }
        Net.write(fd, "150 listing follows\\r\\n" + index + "\\r\\n226 done\\r\\n");
        return true;
    }
    bool doRetr(string name) {
        if (!PermissionChecker.canRead(user, name)) {
            Net.write(fd, "530 not logged in\\r\\n");
            return true;
        }
        string content = Files.read(FtpConfig.rootDir + "/" + name);
        if (content == null) {
            Net.write(fd, "550 no such file\\r\\n");
        } else {
            this.transferCount = this.transferCount + 1;
            TransferLog.record(name, content.length());
            Net.write(fd, "150 opening data\\r\\n" + content + "\\r\\n226 transfer complete\\r\\n");
        }
        return true;
    }
    bool doStor(string name) {
        if (!PermissionChecker.canWrite(user, name)) {
            Net.write(fd, "550 permission denied\\r\\n");
            return true;
        }
        string data = Net.readLine(fd);
        if (data == null) { data = ""; }
        Files.write(FtpConfig.rootDir + "/" + name, data);
        this.transferCount = this.transferCount + 1;
        TransferLog.record(name, data.length());
        Net.write(fd, "226 stored " + name + "\\r\\n");
        return true;
    }
}
"""

VERSION_106 = "\n".join(
    [_SERVER, _CONFIG_105, _STATS_105, _USERS_105, _PARSER_106, _BANNER_106, _HANDLER_106]
)

# ---------------------------------------------------------------------------
# 1.07: FtpConfig +maxConnections +timeoutSeconds; Stats +bytesOut +logins;
# RequestHandler +lastCommand; new SIZE/SYST handlers; many body tweaks.


_CONFIG_107 = """
class FtpConfig {
    static string rootDir;
    static bool anonymousAllowed;
    static int maxConnections;
    static int timeoutSeconds;
    static void load() {
        FtpConfig.rootDir = "/srv/ftp";
        FtpConfig.anonymousAllowed = true;
        FtpConfig.maxConnections = 64;
        FtpConfig.timeoutSeconds = 300;
        if (!Files.exists("/srv/ftp/readme.txt")) {
            Files.write("/srv/ftp/readme.txt", "welcome to crossftp");
        }
        if (!Files.exists("/srv/ftp/.index")) {
            Files.write("/srv/ftp/.index", "readme.txt");
        }
    }
}
"""

_STATS_107 = """
class Stats {
    static int connections;
    static int commands;
    static int bytesOut;
    static int logins;
}
"""

_HANDLER_107 = """
class RequestHandler {
    int fd;
    FtpUser user;
    bool loggedIn;
    string cwd;
    string pendingUser;
    int transferCount;
    string lastCommand;
    RequestHandler(int fd0) {
        this.fd = fd0;
        this.cwd = "/";
        this.lastCommand = "";
    }
    void run() {
        Net.write(fd, WelcomeBanner.banner() + "\\r\\n");
        bool open = true;
        while (open) {
            string line = Net.readLine(fd);
            if (line == null) { open = false; }
            else {
                Stats.commands = Stats.commands + 1;
                open = dispatch(line);
            }
        }
        Net.close(fd);
    }
    bool dispatch(string line) {
        FtpCommand command = CommandParser.parse(line);
        string cmd = command.verb;
        string arg = command.argument;
        this.lastCommand = cmd;
        if (cmd == "USER") { return doUser(arg); }
        if (cmd == "PASS") { return doPass(arg); }
        if (cmd == "PWD") { return doPwd(); }
        if (cmd == "CWD") { return doCwd(arg); }
        if (cmd == "NOOP") { Net.write(fd, "200 okay\\r\\n"); return true; }
        if (cmd == "SYST") { return doSyst(); }
        if (cmd == "SIZE") { return doSize(arg); }
        if (cmd == "LIST") { return doList(); }
        if (cmd == "RETR") { return doRetr(arg); }
        if (cmd == "STOR") { return doStor(arg); }
        if (cmd == "QUIT") { Net.write(fd, "221 goodbye\\r\\n"); return false; }
        Net.write(fd, "502 command not implemented\\r\\n");
        return true;
    }
    bool doUser(string name) {
        this.pendingUser = name;
        this.loggedIn = false;
        Net.write(fd, "331 password required for " + name + "\\r\\n");
        return true;
    }
    bool doPass(string pass) {
        FtpUser candidate = UserStore.lookup(pendingUser);
        if (candidate != null && (candidate.password == pass ||
                (candidate.name == "anonymous" && FtpConfig.anonymousAllowed))) {
            this.user = candidate;
            this.loggedIn = true;
            Stats.logins = Stats.logins + 1;
            Net.write(fd, "230 user " + candidate.name + " logged in\\r\\n");
        } else {
            Net.write(fd, "530 login incorrect\\r\\n");
        }
        return true;
    }
    bool doPwd() {
        Net.write(fd, "257 \\"" + cwd + "\\" is current directory\\r\\n");
        return true;
    }
    bool doCwd(string arg) {
        if (arg == "") { arg = "/"; }
        cwd = arg;
        Net.write(fd, "250 directory changed to " + cwd + "\\r\\n");
        return true;
    }
    bool doSyst() {
        Net.write(fd, "215 UNIX Type: L8\\r\\n");
        return true;
    }
    bool doSize(string name) {
        string content = Files.read(FtpConfig.rootDir + "/" + name);
        if (content == null) {
            Net.write(fd, "550 no such file\\r\\n");
        } else {
            Net.write(fd, "213 " + content.length() + "\\r\\n");
        }
        return true;
    }
    bool doList() {
        if (!loggedIn) { Net.write(fd, "530 not logged in\\r\\n"); return true; }
        string index = Files.read(FtpConfig.rootDir + "/.index");
        if (index == null) { index = ""; }
        Stats.bytesOut = Stats.bytesOut + index.length();
        Net.write(fd, "150 listing follows\\r\\n" + index + "\\r\\n226 done\\r\\n");
        return true;
    }
    bool doRetr(string name) {
        if (!PermissionChecker.canRead(user, name)) {
            Net.write(fd, "530 not logged in\\r\\n");
            return true;
        }
        string content = Files.read(FtpConfig.rootDir + "/" + name);
        if (content == null) {
            Net.write(fd, "550 no such file\\r\\n");
        } else {
            this.transferCount = this.transferCount + 1;
            Stats.bytesOut = Stats.bytesOut + content.length();
            TransferLog.record(name, content.length());
            Net.write(fd, "150 opening data\\r\\n" + content + "\\r\\n226 transfer complete\\r\\n");
        }
        return true;
    }
    bool doStor(string name) {
        if (!PermissionChecker.canWrite(user, name)) {
            Net.write(fd, "550 permission denied\\r\\n");
            return true;
        }
        string data = Net.readLine(fd);
        if (data == null) { data = ""; }
        Files.write(FtpConfig.rootDir + "/" + name, data);
        this.transferCount = this.transferCount + 1;
        TransferLog.record(name, data.length());
        Net.write(fd, "226 stored " + name + "\\r\\n");
        return true;
    }
}
"""

VERSION_107 = "\n".join(
    [_SERVER, _CONFIG_107, _STATS_107, _USERS_105, _PARSER_106, _BANNER_107, _HANDLER_107]
)

# ---------------------------------------------------------------------------
# 1.08: RequestHandler.run() restructured (inline idle/EOF handling and a
# session command cap) — a category-1 change to a method that is on the
# stack for the whole life of every session. TransferLog is deleted (its
# counters fold into Stats); RequestHandler drops transferCount/lastCommand.


_PARSER_108 = """
class FtpCommand {
    string verb;
    string argument;
    FtpCommand(string v, string a) { this.verb = v; this.argument = a; }
}
class CommandParser {
    static FtpCommand parse(string line) {
        string cmd = line;
        string arg = "";
        int space = line.indexOf(" ");
        if (space >= 0) {
            cmd = line.substring(0, space);
            arg = line.substring(space + 1);
        }
        return new FtpCommand(cmd.toUpperCase(), arg.trim());
    }
}
class PermissionChecker {
    static bool canRead(FtpUser user, string path) {
        return user != null;
    }
    static bool canWrite(FtpUser user, string path) {
        return user != null && user.name != "anonymous";
    }
}
"""

_STATS_108 = """
class Stats {
    static int connections;
    static int commands;
    static int bytesOut;
    static int logins;
    static int transfers;
    static void recordTransfer(string name, int size) {
        Stats.transfers = Stats.transfers + 1;
        Stats.bytesOut = Stats.bytesOut + size;
    }
}
"""

_HANDLER_108 = """
class RequestHandler {
    int fd;
    FtpUser user;
    bool loggedIn;
    string cwd;
    string pendingUser;
    RequestHandler(int fd0) {
        this.fd = fd0;
        this.cwd = "/";
    }
    void run() {
        Net.write(fd, WelcomeBanner.banner() + "\\r\\n");
        int served = 0;
        bool open = true;
        while (open && served < 1000) {
            string line = Net.readLine(fd);
            if (line == null) { open = false; }
            else {
                served = served + 1;
                Stats.commands = Stats.commands + 1;
                open = dispatch(line);
            }
        }
        if (open) { Net.write(fd, "421 session command limit reached\\r\\n"); }
        Net.close(fd);
    }
    bool dispatch(string line) {
        FtpCommand command = CommandParser.parse(line);
        string cmd = command.verb;
        string arg = command.argument;
        if (cmd == "USER") { return doUser(arg); }
        if (cmd == "PASS") { return doPass(arg); }
        if (cmd == "PWD") { return doPwd(); }
        if (cmd == "CWD") { return doCwd(arg); }
        if (cmd == "NOOP") { Net.write(fd, "200 okay\\r\\n"); return true; }
        if (cmd == "SYST") { return doSyst(); }
        if (cmd == "SIZE") { return doSize(arg); }
        if (cmd == "LIST") { return doList(); }
        if (cmd == "RETR") { return doRetr(arg); }
        if (cmd == "STOR") { return doStor(arg); }
        if (cmd == "QUIT") { Net.write(fd, "221 goodbye\\r\\n"); return false; }
        Net.write(fd, "502 command not implemented\\r\\n");
        return true;
    }
    bool doUser(string name) {
        this.pendingUser = name;
        this.loggedIn = false;
        Net.write(fd, "331 password required for " + name + "\\r\\n");
        return true;
    }
    bool doPass(string pass) {
        FtpUser candidate = UserStore.lookup(pendingUser);
        if (candidate != null && (candidate.password == pass ||
                (candidate.name == "anonymous" && FtpConfig.anonymousAllowed))) {
            this.user = candidate;
            this.loggedIn = true;
            Stats.logins = Stats.logins + 1;
            Net.write(fd, "230 user " + candidate.name + " logged in\\r\\n");
        } else {
            Net.write(fd, "530 login incorrect\\r\\n");
        }
        return true;
    }
    bool doPwd() {
        Net.write(fd, "257 \\"" + cwd + "\\" is current directory\\r\\n");
        return true;
    }
    bool doCwd(string arg) {
        if (arg == "") { arg = "/"; }
        cwd = arg;
        Net.write(fd, "250 directory changed to " + cwd + "\\r\\n");
        return true;
    }
    bool doSyst() {
        Net.write(fd, "215 UNIX Type: L8\\r\\n");
        return true;
    }
    bool doSize(string name) {
        string content = Files.read(FtpConfig.rootDir + "/" + name);
        if (content == null) {
            Net.write(fd, "550 no such file\\r\\n");
        } else {
            Net.write(fd, "213 " + content.length() + "\\r\\n");
        }
        return true;
    }
    bool doList() {
        if (!loggedIn) { Net.write(fd, "530 not logged in\\r\\n"); return true; }
        string index = Files.read(FtpConfig.rootDir + "/.index");
        if (index == null) { index = ""; }
        Stats.bytesOut = Stats.bytesOut + index.length();
        Net.write(fd, "150 listing follows\\r\\n" + index + "\\r\\n226 done\\r\\n");
        return true;
    }
    bool doRetr(string name) {
        if (!PermissionChecker.canRead(user, name)) {
            Net.write(fd, "530 not logged in\\r\\n");
            return true;
        }
        string content = Files.read(FtpConfig.rootDir + "/" + name);
        if (content == null) {
            Net.write(fd, "550 no such file\\r\\n");
        } else {
            Stats.recordTransfer(name, content.length());
            Net.write(fd, "150 opening data\\r\\n" + content + "\\r\\n226 transfer complete\\r\\n");
        }
        return true;
    }
    bool doStor(string name) {
        if (!PermissionChecker.canWrite(user, name)) {
            Net.write(fd, "550 permission denied\\r\\n");
            return true;
        }
        string data = Net.readLine(fd);
        if (data == null) { data = ""; }
        Files.write(FtpConfig.rootDir + "/" + name, data);
        Stats.recordTransfer(name, data.length());
        Net.write(fd, "226 stored " + name + "\\r\\n");
        return true;
    }
}
"""

_BANNER_108 = """
class WelcomeBanner {
    static string banner() { return "220 CrossFTP 1.08 ready"; }
}
"""

VERSION_108 = "\n".join(
    [_SERVER, _CONFIG_107, _STATS_108, _USERS_105, _PARSER_108, _BANNER_108, _HANDLER_108]
)

#: release history in order
VERSIONS = {
    "1.05": VERSION_105,
    "1.06": VERSION_106,
    "1.07": VERSION_107,
    "1.08": VERSION_108,
}

MAIN_CLASS = "FtpServer"

#: custom transformer method text per update, keyed by (from, to); classes
#: not listed fall back to the UPT-generated defaults.
TRANSFORMER_OVERRIDES = {
    ("1.06", "1.07"): {
        # New configuration knobs get their intended defaults rather than 0.
        "FtpConfig": """
    static void jvolveClass(FtpConfig unused) {
        FtpConfig.rootDir = v106_FtpConfig.rootDir;
        FtpConfig.anonymousAllowed = v106_FtpConfig.anonymousAllowed;
        FtpConfig.maxConnections = 64;
        FtpConfig.timeoutSeconds = 300;
    }
    static void jvolveObject(FtpConfig to, v106_FtpConfig from) { }
""",
    },
    ("1.07", "1.08"): {
        # TransferLog was deleted: fold its counter into the new Stats.
        "Stats": """
    static void jvolveClass(Stats unused) {
        Stats.connections = v107_Stats.connections;
        Stats.commands = v107_Stats.commands;
        Stats.bytesOut = v107_Stats.bytesOut;
        Stats.logins = v107_Stats.logins;
        Stats.transfers = v107_TransferLog.transfers;
    }
    static void jvolveObject(Stats to, v107_Stats from) { }
""",
    },
    ("1.08", "1.07"): {
        # The reverse: TransferLog comes back, so its counter moves back.
        "Stats": """
    static void jvolveClass(Stats unused) {
        Stats.connections = v108_Stats.connections;
        Stats.commands = v108_Stats.commands;
        Stats.bytesOut = v108_Stats.bytesOut;
        Stats.logins = v108_Stats.logins;
        TransferLog.transfers = v108_Stats.transfers;
    }
    static void jvolveObject(Stats to, v108_Stats from) { }
""",
    },
}

// Package pipeline implements KGLiDS's Pipeline Abstraction (paper
// Section 3.1, Algorithm 1): lightweight static analysis of Python pipeline
// scripts enriched with programming-library documentation analysis and
// dataset-usage analysis, producing one named graph per pipeline plus a
// shared library graph.
package pipeline

import "strings"

// ParamDoc documents one function/constructor parameter: its name and the
// lexical form of its default value ("" when the parameter is required).
type ParamDoc struct {
	Name    string
	Default string
}

// FuncDoc is the machine-readable documentation entry for a class
// constructor or function: parameter names (in positional order), default
// values, and the return type (a qualified type name). This is the JSON
// document per class and method that Section 3.1's Documentation Analysis
// describes.
type FuncDoc struct {
	Qualified  string // e.g. "sklearn.ensemble.RandomForestClassifier"
	Params     []ParamDoc
	ReturnType string // qualified type of the return value
}

// Docs is the programming-library documentation corpus (the L_D input of
// Algorithm 1). The original system scrapes pandas/sklearn documentation;
// here the same lookup tables are compiled in.
type Docs struct {
	funcs map[string]*FuncDoc
	// methods maps "qualifiedType.method" for method resolution on values
	// whose type documentation analysis inferred.
	methods map[string]*FuncDoc
}

// Lookup returns documentation for a fully qualified function or class.
func (d *Docs) Lookup(qualified string) (*FuncDoc, bool) {
	f, ok := d.funcs[qualified]
	return f, ok
}

// LookupMethod returns documentation for a method on a qualified type.
func (d *Docs) LookupMethod(typ, method string) (*FuncDoc, bool) {
	f, ok := d.methods[typ+"."+method]
	return f, ok
}

// entry is the compact literal form the corpus is written in.
type entry struct {
	q   string // qualified name
	ps  string // comma-separated params, "name" or "name=default"
	ret string // return type
}

func parseParams(ps string) []ParamDoc {
	if ps == "" {
		return nil
	}
	var out []ParamDoc
	for _, p := range splitTopLevel(ps) {
		p = strings.TrimSpace(p)
		if i := strings.IndexByte(p, '='); i >= 0 {
			out = append(out, ParamDoc{Name: p[:i], Default: p[i+1:]})
		} else {
			out = append(out, ParamDoc{Name: p})
		}
	}
	return out
}

// splitTopLevel splits on commas outside quotes and parentheses, so
// defaults like "sep=','" and "feature_range=(0, 1)" survive intact.
func splitTopLevel(s string) []string {
	var out []string
	depth := 0
	inQuote := byte(0)
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '\'' || c == '"':
			inQuote = c
		case c == '(' || c == '[' || c == '{':
			depth++
		case c == ')' || c == ']' || c == '}':
			depth--
		case c == ',' && depth == 0:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

func (d *Docs) add(e entry) {
	d.funcs[e.q] = &FuncDoc{Qualified: e.q, ReturnType: e.ret, Params: parseParams(e.ps)}
}

func (d *Docs) addMethod(typ, method string, e entry) {
	d.methods[typ+"."+method] = &FuncDoc{Qualified: e.q, ReturnType: e.ret, Params: parseParams(e.ps)}
}

// BuiltinDocs returns the compiled-in documentation corpus covering the
// pandas / scikit-learn / numpy / xgboost subset that data science
// pipelines rely on.
func BuiltinDocs() *Docs {
	d := &Docs{funcs: map[string]*FuncDoc{}, methods: map[string]*FuncDoc{}}
	const (
		df  = "pandas.DataFrame"
		ser = "pandas.Series"
		arr = "numpy.ndarray"
	)
	for _, e := range []entry{
		// pandas IO and frame constructors.
		{"pandas.read_csv", "filepath_or_buffer,sep=',',header='infer',index_col=None", df},
		{"pandas.read_json", "path_or_buf,orient=None", df},
		{"pandas.read_excel", "io,sheet_name=0", df},
		{"pandas.DataFrame", "data=None,index=None,columns=None", df},
		{"pandas.Series", "data=None,index=None", ser},
		{"pandas.concat", "objs,axis=0,join='outer'", df},
		{"pandas.merge", "left,right,how='inner',on=None", df},
		{"pandas.get_dummies", "data,prefix=None,drop_first=False", df},
		{"pandas.to_datetime", "arg,errors='raise'", ser},
		{"pandas.crosstab", "index,columns", df},
		{"pandas.pivot_table", "data,values=None,index=None", df},

		// sklearn preprocessing / impute.
		{"sklearn.impute.SimpleImputer", "missing_values=nan,strategy='mean',fill_value=None", "sklearn.impute.SimpleImputer"},
		{"sklearn.impute.KNNImputer", "missing_values=nan,n_neighbors=5,weights='uniform'", "sklearn.impute.KNNImputer"},
		{"sklearn.impute.IterativeImputer", "estimator=None,max_iter=10,tol=0.001", "sklearn.impute.IterativeImputer"},
		{"sklearn.preprocessing.StandardScaler", "copy=True,with_mean=True,with_std=True", "sklearn.preprocessing.StandardScaler"},
		{"sklearn.preprocessing.MinMaxScaler", "feature_range=(0, 1),copy=True", "sklearn.preprocessing.MinMaxScaler"},
		{"sklearn.preprocessing.RobustScaler", "with_centering=True,with_scaling=True,quantile_range=(25.0, 75.0)", "sklearn.preprocessing.RobustScaler"},
		{"sklearn.preprocessing.LabelEncoder", "", "sklearn.preprocessing.LabelEncoder"},
		{"sklearn.preprocessing.OneHotEncoder", "categories='auto',drop=None,sparse=True", "sklearn.preprocessing.OneHotEncoder"},
		{"sklearn.preprocessing.Normalizer", "norm='l2',copy=True", "sklearn.preprocessing.Normalizer"},
		{"sklearn.preprocessing.PolynomialFeatures", "degree=2,interaction_only=False", "sklearn.preprocessing.PolynomialFeatures"},

		// sklearn model selection and metrics.
		{"sklearn.model_selection.train_test_split", "arrays,test_size=0.25,train_size=None,random_state=None,shuffle=True", "tuple"},
		{"sklearn.model_selection.cross_val_score", "estimator,X,y=None,cv=5,scoring=None", arr},
		{"sklearn.model_selection.GridSearchCV", "estimator,param_grid,scoring=None,cv=5", "sklearn.model_selection.GridSearchCV"},
		{"sklearn.model_selection.KFold", "n_splits=5,shuffle=False,random_state=None", "sklearn.model_selection.KFold"},
		{"sklearn.metrics.accuracy_score", "y_true,y_pred,normalize=True", "float"},
		{"sklearn.metrics.f1_score", "y_true,y_pred,average='binary'", "float"},
		{"sklearn.metrics.precision_score", "y_true,y_pred,average='binary'", "float"},
		{"sklearn.metrics.recall_score", "y_true,y_pred,average='binary'", "float"},
		{"sklearn.metrics.roc_auc_score", "y_true,y_score", "float"},
		{"sklearn.metrics.mean_squared_error", "y_true,y_pred,squared=True", "float"},
		{"sklearn.metrics.confusion_matrix", "y_true,y_pred,labels=None", arr},
		{"sklearn.metrics.classification_report", "y_true,y_pred", "str"},

		// sklearn estimators.
		{"sklearn.linear_model.LogisticRegression", "penalty='l2',C=1.0,solver='lbfgs',max_iter=100,random_state=None", "sklearn.linear_model.LogisticRegression"},
		{"sklearn.linear_model.LinearRegression", "fit_intercept=True,copy_X=True", "sklearn.linear_model.LinearRegression"},
		{"sklearn.linear_model.Ridge", "alpha=1.0,fit_intercept=True", "sklearn.linear_model.Ridge"},
		{"sklearn.linear_model.Lasso", "alpha=1.0,fit_intercept=True", "sklearn.linear_model.Lasso"},
		{"sklearn.linear_model.SGDClassifier", "loss='hinge',penalty='l2',alpha=0.0001,max_iter=1000", "sklearn.linear_model.SGDClassifier"},
		{"sklearn.ensemble.RandomForestClassifier", "n_estimators=100,criterion='gini',max_depth=None,min_samples_split=2,min_samples_leaf=1,max_features='sqrt',random_state=None", "sklearn.ensemble.RandomForestClassifier"},
		{"sklearn.ensemble.RandomForestRegressor", "n_estimators=100,criterion='squared_error',max_depth=None,random_state=None", "sklearn.ensemble.RandomForestRegressor"},
		{"sklearn.ensemble.GradientBoostingClassifier", "loss='log_loss',learning_rate=0.1,n_estimators=100,max_depth=3", "sklearn.ensemble.GradientBoostingClassifier"},
		{"sklearn.ensemble.AdaBoostClassifier", "estimator=None,n_estimators=50,learning_rate=1.0", "sklearn.ensemble.AdaBoostClassifier"},
		{"sklearn.ensemble.ExtraTreesClassifier", "n_estimators=100,criterion='gini',max_depth=None", "sklearn.ensemble.ExtraTreesClassifier"},
		{"sklearn.tree.DecisionTreeClassifier", "criterion='gini',splitter='best',max_depth=None,min_samples_split=2,random_state=None", "sklearn.tree.DecisionTreeClassifier"},
		{"sklearn.tree.DecisionTreeRegressor", "criterion='squared_error',max_depth=None", "sklearn.tree.DecisionTreeRegressor"},
		{"sklearn.neighbors.KNeighborsClassifier", "n_neighbors=5,weights='uniform',algorithm='auto',p=2", "sklearn.neighbors.KNeighborsClassifier"},
		{"sklearn.naive_bayes.GaussianNB", "priors=None,var_smoothing=1e-09", "sklearn.naive_bayes.GaussianNB"},
		{"sklearn.svm.SVC", "C=1.0,kernel='rbf',degree=3,gamma='scale',random_state=None", "sklearn.svm.SVC"},
		{"sklearn.cluster.KMeans", "n_clusters=8,init='k-means++',n_init=10,max_iter=300,random_state=None", "sklearn.cluster.KMeans"},
		{"sklearn.decomposition.PCA", "n_components=None,whiten=False,random_state=None", "sklearn.decomposition.PCA"},

		// xgboost / lightgbm.
		{"xgboost.XGBClassifier", "max_depth=6,learning_rate=0.3,n_estimators=100,objective='binary:logistic',random_state=0", "xgboost.XGBClassifier"},
		{"xgboost.XGBRegressor", "max_depth=6,learning_rate=0.3,n_estimators=100,random_state=0", "xgboost.XGBRegressor"},
		{"lightgbm.LGBMClassifier", "num_leaves=31,learning_rate=0.1,n_estimators=100", "lightgbm.LGBMClassifier"},

		// numpy.
		{"numpy.array", "object,dtype=None", arr},
		{"numpy.log", "x", arr},
		{"numpy.log1p", "x", arr},
		{"numpy.sqrt", "x", arr},
		{"numpy.exp", "x", arr},
		{"numpy.mean", "a,axis=None", "float"},
		{"numpy.std", "a,axis=None", "float"},
		{"numpy.zeros", "shape,dtype=float", arr},
		{"numpy.ones", "shape,dtype=float", arr},
		{"numpy.arange", "start,stop=None,step=1", arr},
		{"numpy.where", "condition,x=None,y=None", arr},
		{"numpy.concatenate", "arrays,axis=0", arr},

		// matplotlib / seaborn / plotting (insignificant for semantics but
		// present in the library graph).
		{"matplotlib.pyplot.plot", "x,y=None", "None"},
		{"matplotlib.pyplot.show", "", "None"},
		{"matplotlib.pyplot.figure", "figsize=None", "matplotlib.figure.Figure"},
		{"matplotlib.pyplot.hist", "x,bins=None", "None"},
		{"matplotlib.pyplot.scatter", "x,y", "None"},
		{"seaborn.heatmap", "data,annot=False", "None"},
		{"seaborn.pairplot", "data,hue=None", "None"},
		{"seaborn.countplot", "x=None,data=None", "None"},
		{"scipy.stats.zscore", "a,axis=0", arr},
		{"scipy.stats.pearsonr", "x,y", "tuple"},
		{"wordcloud.WordCloud", "width=400,height=200", "wordcloud.WordCloud"},
		{"nltk.word_tokenize", "text", "list"},
		{"statsmodels.api.OLS", "endog,exog=None", "statsmodels.api.OLS"},
		{"IPython.display.display", "objs", "None"},
		{"plotly.express.scatter", "data_frame=None,x=None,y=None", "None"},
		{"plotly.express.line", "data_frame=None,x=None,y=None", "None"},
	} {
		d.add(e)
	}

	// DataFrame / Series methods.
	for _, m := range []struct {
		typ, name string
		e         entry
	}{
		{df, "drop", entry{df + ".drop", "labels=None,axis=0,columns=None,inplace=False", df}},
		{df, "dropna", entry{df + ".dropna", "axis=0,how='any',inplace=False", df}},
		{df, "fillna", entry{df + ".fillna", "value=None,method=None,axis=None,inplace=False", df}},
		{df, "interpolate", entry{df + ".interpolate", "method='linear',axis=0,inplace=False", df}},
		{df, "head", entry{df + ".head", "n=5", df}},
		{df, "tail", entry{df + ".tail", "n=5", df}},
		{df, "describe", entry{df + ".describe", "", df}},
		{df, "info", entry{df + ".info", "", "None"}},
		{df, "groupby", entry{df + ".groupby", "by=None,axis=0", "pandas.GroupBy"}},
		{df, "merge", entry{df + ".merge", "right,how='inner',on=None", df}},
		{df, "join", entry{df + ".join", "other,on=None,how='left'", df}},
		{df, "apply", entry{df + ".apply", "func,axis=0", df}},
		{df, "astype", entry{df + ".astype", "dtype", df}},
		{df, "copy", entry{df + ".copy", "deep=True", df}},
		{df, "sample", entry{df + ".sample", "n=None,frac=None,random_state=None", df}},
		{df, "sort_values", entry{df + ".sort_values", "by,ascending=True", df}},
		{df, "rename", entry{df + ".rename", "columns=None,inplace=False", df}},
		{df, "corr", entry{df + ".corr", "method='pearson'", df}},
		{df, "isnull", entry{df + ".isnull", "", df}},
		{df, "sum", entry{df + ".sum", "axis=None", ser}},
		{df, "mean", entry{df + ".mean", "axis=None", ser}},
		{df, "value_counts", entry{df + ".value_counts", "normalize=False", ser}},
		{df, "to_csv", entry{df + ".to_csv", "path_or_buf=None,index=True", "None"}},
		{df, "reset_index", entry{df + ".reset_index", "drop=False,inplace=False", df}},
		{df, "set_index", entry{df + ".set_index", "keys,inplace=False", df}},
		{df, "nunique", entry{df + ".nunique", "axis=0", ser}},
		{ser, "map", entry{ser + ".map", "arg", ser}},
		{ser, "apply", entry{ser + ".apply", "func", ser}},
		{ser, "fillna", entry{ser + ".fillna", "value=None,method=None,inplace=False", ser}},
		{ser, "astype", entry{ser + ".astype", "dtype", ser}},
		{ser, "value_counts", entry{ser + ".value_counts", "normalize=False", ser}},
		{ser, "mean", entry{ser + ".mean", "", "float"}},
		{ser, "unique", entry{ser + ".unique", "", arr}},
		{ser, "isnull", entry{ser + ".isnull", "", ser}},
		{"pandas.GroupBy", "agg", entry{"pandas.GroupBy.agg", "func", df}},
		{"pandas.GroupBy", "mean", entry{"pandas.GroupBy.mean", "", df}},
		{"pandas.GroupBy", "sum", entry{"pandas.GroupBy.sum", "", df}},
	} {
		d.addMethod(m.typ, m.name, m.e)
	}

	// Estimator/transformer methods shared across sklearn-like types.
	estimators := []string{
		"sklearn.impute.SimpleImputer", "sklearn.impute.KNNImputer",
		"sklearn.impute.IterativeImputer",
		"sklearn.preprocessing.StandardScaler", "sklearn.preprocessing.MinMaxScaler",
		"sklearn.preprocessing.RobustScaler", "sklearn.preprocessing.LabelEncoder",
		"sklearn.preprocessing.OneHotEncoder", "sklearn.preprocessing.Normalizer",
		"sklearn.preprocessing.PolynomialFeatures",
		"sklearn.linear_model.LogisticRegression", "sklearn.linear_model.LinearRegression",
		"sklearn.linear_model.Ridge", "sklearn.linear_model.Lasso",
		"sklearn.linear_model.SGDClassifier",
		"sklearn.ensemble.RandomForestClassifier", "sklearn.ensemble.RandomForestRegressor",
		"sklearn.ensemble.GradientBoostingClassifier", "sklearn.ensemble.AdaBoostClassifier",
		"sklearn.ensemble.ExtraTreesClassifier",
		"sklearn.tree.DecisionTreeClassifier", "sklearn.tree.DecisionTreeRegressor",
		"sklearn.neighbors.KNeighborsClassifier", "sklearn.naive_bayes.GaussianNB",
		"sklearn.svm.SVC", "sklearn.cluster.KMeans", "sklearn.decomposition.PCA",
		"sklearn.model_selection.GridSearchCV",
		"xgboost.XGBClassifier", "xgboost.XGBRegressor", "lightgbm.LGBMClassifier",
	}
	for _, t := range estimators {
		d.addMethod(t, "fit", entry{t + ".fit", "X,y=None", t})
		d.addMethod(t, "predict", entry{t + ".predict", "X", arr})
		d.addMethod(t, "fit_transform", entry{t + ".fit_transform", "X,y=None", arr})
		d.addMethod(t, "transform", entry{t + ".transform", "X", arr})
		d.addMethod(t, "score", entry{t + ".score", "X,y", "float"})
		d.addMethod(t, "predict_proba", entry{t + ".predict_proba", "X", arr})
	}
	return d
}

// insignificantCalls are statements the abstraction discards, per
// Section 3.1 ("statements that have no significance in the pipeline
// semantics, such as print(), DataFrame.head(), and summary()").
var insignificantCalls = map[string]bool{
	"print":                     true,
	"pandas.DataFrame.head":     true,
	"pandas.DataFrame.tail":     true,
	"pandas.DataFrame.info":     true,
	"pandas.DataFrame.describe": true,
	"summary":                   true,
	"display":                   true,
	"IPython.display.display":   true,
	"matplotlib.pyplot.show":    true,
}

// IsInsignificant reports whether a resolved call is semantically
// insignificant for pipeline abstraction.
func IsInsignificant(qualified string) bool { return insignificantCalls[qualified] }
